package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/sweep"
)

// simResponse is the part of a /v1/sim response the cross-tool test reads.
type simResponse struct {
	Cached  bool            `json:"cached"`
	FP      string          `json:"fingerprint"`
	Metrics json.RawMessage `json:"metrics"`
}

// openFileStore opens the JSONL store at path; the caller closes it.
func openFileStore(t *testing.T, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tableCell returns the one-cell job list and RunSpec of a paper table at
// n=10 under short test windows.
func tableCell(t *testing.T, table string, opt bench.Options) ([]sweep.Job, exec.RunSpec) {
	t.Helper()
	jobs, err := sweep.BuildJobs(sweep.SuitePaper, table, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%s at maxn 10 yielded %d jobs, want 1", table, len(jobs))
	}
	ex, err := bench.FindTable(table)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ex.Spec(10, opt)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, spec
}

// The sweep (cmd/tables -cache) and the daemon (routesimd -cache) share one
// result store: a cell either of them computed is a cache hit for the other.
func TestSweepAndDaemonShareStore(t *testing.T) {
	opt := bench.Options{Seed: 1, Warmup: 50, Measure: 100}

	t.Run("sweep-then-daemon", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		jobs, spec := tableCell(t, "table9", opt)
		st := openFileStore(t, path)
		if _, err := sweep.Run(context.Background(), jobs, opt, sweep.Options{Store: st}); err != nil {
			t.Fatal(err)
		}
		blob, ok := st.Get(spec.Fingerprint(bench.BuildID()))
		st.Close()
		if !ok {
			t.Fatal("sweep did not store its cell under the spec's fingerprint")
		}
		var stored exec.Result
		if err := json.Unmarshal(blob, &stored); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(stored.Metrics)
		if err != nil {
			t.Fatal(err)
		}

		_, hs := newTestServer(t, Config{Store: openFileStore(t, path)})
		resp, body := postSpec(t, hs.URL, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}
		var got simResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Cached {
			t.Fatal("daemon re-simulated a cell the sweep had stored")
		}
		if string(got.Metrics) != string(want) {
			t.Fatalf("daemon metrics differ from the sweep's:\n got %s\nwant %s", got.Metrics, want)
		}
	})

	t.Run("daemon-then-sweep", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		jobs, spec := tableCell(t, "table1", opt)
		st := openFileStore(t, path)
		srv, err := New(Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		resp, body := postSpec(t, hs.URL, spec)
		hs.Close()
		srv.Close()
		st.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}

		st = openFileStore(t, path)
		defer st.Close()
		got, err := sweep.Run(context.Background(), jobs, opt, sweep.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sweep.Run(context.Background(), jobs, opt, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Cached {
			t.Fatal("sweep re-simulated a cell the daemon had stored")
		}
		if got[0].Row != fresh[0].Row {
			t.Fatalf("cached row %+v != fresh row %+v", got[0].Row, fresh[0].Row)
		}
	})
}
