package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/exec"
)

// A store hit is served on Check alone, so Check must reject every invalid
// spec that shares its fingerprint with a stored valid one: each such twin
// gets the 400 and field Validate gives it, and never touches the store.
func TestHitPathRejectsInvalidTwins(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	base := exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 1}
	atomicBase := exec.RunSpec{Algo: "hypercube-adaptive:4", Engine: "atomic", Seed: 1}
	for _, s := range []exec.RunSpec{base, atomicBase} {
		if resp, body := postSpec(t, hs.URL, s); resp.StatusCode != http.StatusOK {
			t.Fatalf("storing %+v: %d %s", s, resp.StatusCode, body)
		}
	}

	with := func(s exec.RunSpec, mut func(*exec.RunSpec)) exec.RunSpec {
		mut(&s)
		return s
	}
	cases := []struct {
		name  string
		twin  exec.RunSpec
		of    exec.RunSpec // the stored spec it shares a fingerprint with
		field string
	}{
		{"bernoulli under static", with(base, func(s *exec.RunSpec) { s.Traffic = "bernoulli" }), base, "traffic"},
		{"unknown version", with(base, func(s *exec.RunSpec) { s.V = 3 }), base, "v"},
		{"negative workers", with(base, func(s *exec.RunSpec) { s.Workers = -1 }), base, "workers"},
		{"atomic with workers", with(atomicBase, func(s *exec.RunSpec) { s.Workers = 2 }), atomicBase, "workers"},
		// A combined algo contradicting the topology keeps its combined
		// form in the fingerprint, so it shares no valid spec's key; it
		// still must not reach the store.
		{"algo contradicts topology", with(base, func(s *exec.RunSpec) { s.Algo = "hypercube-adaptive:5"; s.Topology = "hypercube:4" }), exec.RunSpec{}, "topology"},
	}
	for _, tc := range cases {
		if tc.of.Algo != "" && tc.twin.Fingerprint(srv.cfg.BuildID) != tc.of.Fingerprint(srv.cfg.BuildID) {
			t.Fatalf("%s: not a fingerprint twin of %+v", tc.name, tc.of)
		}
		var fe *exec.FieldError
		if err := tc.twin.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Fatalf("%s: Validate = %v, want a %q field error", tc.name, err, tc.field)
		}
		hits := srv.st.Stats().Counts().Hits
		resp, body := postSpec(t, hs.URL, tc.twin)
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Field != tc.field {
			t.Errorf("%s: got %d field %q (%s), want 400 field %q", tc.name, resp.StatusCode, e.Field, body, tc.field)
		}
		if got := srv.st.Stats().Counts().Hits; got != hits {
			t.Errorf("%s: store hits went %d -> %d", tc.name, hits, got)
		}
	}
}

// A warm hit on a generated-graph spec builds no network: it allocates less
// than the spec's route table alone, which a hit that compiled the spec
// would build.
func TestWarmGraphHitBuildsNothing(t *testing.T) {
	const n = 256
	srv, hs := newTestServer(t, Config{})
	spec := exec.RunSpec{Algo: "graph-adaptive", Topology: "graph:random-regular:n=256,k=4,seed=7", Seed: 1}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp, b := postSpec(t, hs.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold POST: %d %s", resp.StatusCode, b)
	}
	tableBytes := uint64(n * n * 4) // the full uint32 next-hop mask table

	hit := func() uint64 {
		req := httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
			t.Fatalf("warm POST: %d %s", rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	best := hit()
	for i := 0; i < 2; i++ {
		best = min(best, hit())
	}
	if best >= tableBytes {
		t.Fatalf("a warm hit allocated %d B, at least the %d B route table: the hit rebuilt the network", best, tableBytes)
	}
}
