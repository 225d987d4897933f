package task

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// minimalDescriptor returns a descriptor that passes every registration
// check, for misuse tests to break one field at a time.
func minimalDescriptor(name string, wire byte) Descriptor {
	return Descriptor{
		Name:       name,
		Wire:       wire,
		NewBuilder: func(k, nHint int, p Params) Builder { return &collect{} },
		AppendBody: func(dst []byte, s Summary) []byte { return dst },
		DecodeBody: func(s *Summary, data []byte) ([]byte, error) { return data, nil },
		Compose:    func(n int, sums []Summary) Solution { return Solution{} },
		CoresetLen: func(s Summary) int { return 0 },
	}
}

type collect struct{}

func (collect) Add(e graph.Edge)     {}
func (collect) Finish(n int) Summary { return Summary{} }

// expectPanic runs f and asserts it panics with a message containing want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	f()
}

func TestRegisterRejectsMisuse(t *testing.T) {
	fresh := func() *registry {
		r := newRegistry()
		d := minimalDescriptor("a", 1)
		r.register(&d)
		return r
	}

	t.Run("duplicate name panics", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("a", 2)
		expectPanic(t, `duplicate registration of task "a"`, func() { r.register(&d) })
	})
	t.Run("duplicate wire byte panics", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("b", 1)
		expectPanic(t, "wire byte 0x01 already registered", func() { r.register(&d) })
	})
	t.Run("wire byte zero reserved", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("b", 0)
		expectPanic(t, "wire byte 0 is reserved", func() { r.register(&d) })
	})
	t.Run("rounds byte equal to wire byte panics", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("b", 2)
		d.WireRounds = 2
		expectPanic(t, "rounds wire byte equals the single-round byte", func() { r.register(&d) })
	})
	t.Run("rounds byte colliding with another task panics", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("b", 2)
		d.WireRounds = 1
		expectPanic(t, "wire byte 0x01 already registered", func() { r.register(&d) })
	})
	t.Run("empty name panics", func(t *testing.T) {
		r := fresh()
		d := minimalDescriptor("", 2)
		expectPanic(t, "empty name", func() { r.register(&d) })
	})
	for _, field := range []string{"NewBuilder", "AppendBody", "DecodeBody", "Compose", "CoresetLen"} {
		t.Run("nil "+field+" rejected", func(t *testing.T) {
			r := fresh()
			d := minimalDescriptor("b", 2)
			switch field {
			case "NewBuilder":
				d.NewBuilder = nil
			case "AppendBody":
				d.AppendBody = nil
			case "DecodeBody":
				d.DecodeBody = nil
			case "Compose":
				d.Compose = nil
			case "CoresetLen":
				d.CoresetLen = nil
			}
			expectPanic(t, "nil "+field, func() { r.register(&d) })
		})
	}
}

// A panicking registration must leave the registry untouched: the checks all
// run before any table insert.
func TestRegisterPanicLeavesRegistryClean(t *testing.T) {
	r := newRegistry()
	a := minimalDescriptor("a", 1)
	r.register(&a)
	bad := minimalDescriptor("b", 2)
	bad.Compose = nil
	expectPanic(t, "nil Compose", func() { r.register(&bad) })
	if _, ok := r.get("b"); ok {
		t.Fatal("half-registered task visible by name")
	}
	if _, _, ok := r.byWireByte(2); ok {
		t.Fatal("half-registered task visible by wire byte")
	}
	if len(r.names) != 1 {
		t.Fatalf("names = %v after failed registration", r.names)
	}
}

func TestDefaultRegistryContents(t *testing.T) {
	want := []string{"matching", "vc", "edcs", "diversity"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// Names returns a copy: mutating it must not corrupt the registry.
	Names()[0] = "corrupted"
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() not a copy: %v", got)
	}

	for _, tc := range []struct {
		wire       byte
		name       string
		multiRound bool
	}{
		{1, "matching", false},
		{2, "vc", false},
		{3, "edcs", false},
		{4, "edcs", true},
		{5, "diversity", false},
	} {
		d, multiRound, ok := ByWire(tc.wire)
		if !ok {
			t.Fatalf("ByWire(%d): unknown", tc.wire)
		}
		if d.Name != tc.name || multiRound != tc.multiRound {
			t.Fatalf("ByWire(%d) = (%s, %v), want (%s, %v)", tc.wire, d.Name, multiRound, tc.name, tc.multiRound)
		}
	}
	if _, _, ok := ByWire(0); ok {
		t.Fatal("ByWire(0) resolved")
	}
	if _, _, ok := ByWire(6); ok {
		t.Fatal("ByWire(6) resolved")
	}
	if got, want := WireRange(), "0x01, 0x02, 0x03, 0x04, 0x05"; got != want {
		t.Fatalf("WireRange() = %q, want %q", got, want)
	}
	if d := RoundsCapable(); d == nil || d.Name != "edcs" {
		t.Fatalf("RoundsCapable() = %v, want edcs", d)
	}
	if d := betaCapable(); d == nil || d.Name != "edcs" {
		t.Fatalf("betaCapable() = %v, want edcs", d)
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	expectPanic(t, `unknown task "nope"`, func() { MustGet("nope") })
	if d := MustGet("matching"); d.Name != "matching" {
		t.Fatalf("MustGet(matching) = %q", d.Name)
	}
}

// The validation table is shared between the service, the engine and both
// CLIs; the message text is golden —
// cmd/coreset's own goldens pin the same strings with the "coreset: " prefix.
func TestValidateParamsMessages(t *testing.T) {
	for name, tc := range map[string]struct {
		task         string
		beta, rounds int
		want         string // "" means accepted
	}{
		"zero values always pass":    {"matching", 0, 0, ""},
		"unknown task passes zeroes": {"nope", 0, 0, ""},
		"edcs beta ok":               {"edcs", 16, 0, ""},
		"edcs rounds ok":             {"edcs", 0, 3, ""},
		"beta on matching":           {"matching", 16, 0, `beta only applies to task "edcs" (got task "matching")`},
		"beta on diversity":          {"diversity", 16, 0, `beta only applies to task "edcs" (got task "diversity")`},
		"beta on unknown task":       {"nope", 16, 0, `beta only applies to task "edcs" (got task "nope")`},
		"beta too small":             {"edcs", 1, 0, `beta must be in [2, 1048576] (got 1)`},
		"beta too large":             {"edcs", 2000000, 0, `beta must be in [2, 1048576] (got 2000000)`},
		"rounds on vc":               {"vc", 0, 2, `rounds only applies to task "edcs" (got task "vc")`},
		"rounds on diversity":        {"diversity", 0, 2, `rounds only applies to task "edcs" (got task "diversity")`},
		"rounds negative":            {"edcs", 0, -1, `rounds must be in [0, 64] (got -1)`},
		"rounds too large":           {"edcs", 0, 65, `rounds must be in [0, 64] (got 65)`},
	} {
		err := ValidateParams(tc.task, tc.beta, tc.rounds)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}
