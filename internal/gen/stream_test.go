package gen

import (
	"testing"

	"repro/internal/rng"
)

func TestGNPIterExhaustedStaysExhausted(t *testing.T) {
	it := GNPIter(50, 0.2, rng.New(9))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded an edge after exhaustion")
	}
}

func TestGNPIterPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GNPIter(10, 1.5, rng.New(1))
}

func TestPowerlawIterExhaustedStaysExhausted(t *testing.T) {
	it := PowerlawIter(300, 2.0, 20, rng.New(9))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded an edge after exhaustion")
	}
}

func TestPowerlawIterPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowerlawIter(10, 2.0, 0, rng.New(1))
}
