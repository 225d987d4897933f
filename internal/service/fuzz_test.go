package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// graphCrashers are POST /v1/graphs bodies that once took the daemon down
// or cost it memory before any budget applied.
var graphCrashers = []string{
	`{"gen":{"name":"gnp","n":0,"deg":8}}`,        // p = +Inf: gen.GNPIter panicked in the handler
	`{"gen":{"name":"powerlaw","n":4194304}}`,     // O(n) weights drawn before the draw budget applied
	`{"edgeList":"p 2 4611686018427387904\n0 1"}`, // the header's count sized a make
}

// FuzzCreateGraphRequest sends arbitrary bytes as a JSON POST /v1/graphs
// body. Whatever they say, the handler answers a client status — created,
// refused, unknown dataset or taken ID — and never panics or blames itself.
func FuzzCreateGraphRequest(f *testing.F) {
	for _, seed := range append([]string{
		`{"gen":{"name":"gnp","n":50,"deg":4,"seed":1}}`,
		`{"id":"a","gen":{"name":"star","n":5}}`,
		`{"gen":{"name":"powerlaw","n":60,"seed":2}}`,
		`{"edgeList":"p 3 2\n0 1\n1 2\n"}`,
		`{"dataset":"web"}`,
		`{"gen":{"name":"gnp","n":10},"dataset":"web"}`,
		`{}`,
		`[`,
	}, graphCrashers...) {
		f.Add([]byte(seed))
	}
	s := New(Config{Workers: 1, MaxUploadBytes: 4 << 10, DatasetDir: f.TempDir()})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzCreateJobRequest decodes arbitrary bytes as a POST /v1/jobs body and
// normalizes them without running anything. An accepted request is within
// the per-request caps, and normalizing it again changes nothing, so the
// cache key of an accepted request is canonical.
func FuzzCreateJobRequest(f *testing.F) {
	for _, seed := range append([]string{
		`{"graph":"g","task":"matching","k":4,"seed":7}`,
		`{"graph":"g","task":"edcs","k":2,"beta":0,"rounds":3,"mode":"cluster"}`,
		`{"graph":"g","task":"vc","k":70000,"batch":-1}`,
		`{"task":"diversity","k":1,"mode":"batch"}`,
	}, graphCrashers...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CreateJobRequest
		if json.Unmarshal(body, &req) != nil || req.normalize() != nil {
			return
		}
		if req.K < 1 || req.K > MaxJobK || req.Beta < 0 || req.Beta > MaxJobBeta || req.Rounds < 0 || req.Rounds > MaxJobRounds {
			t.Fatalf("accepted past the caps: %+v", req)
		}
		again := req
		if err := again.normalize(); err != nil || again != req {
			t.Fatalf("normalize is not idempotent: %+v -> %+v (%v)", req, again, err)
		}
	})
}
