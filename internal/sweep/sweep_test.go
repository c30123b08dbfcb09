package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/store"
)

// testOptions keeps the simulated windows short: the determinism claims
// under test do not depend on the window length.
func testOptions() bench.Options {
	return bench.Options{Seed: 1, Warmup: 50, Measure: 100}
}

func testJobs(t *testing.T, opt bench.Options) []Job {
	t.Helper()
	jobs, err := BuildJobs(SuitePaper, "", 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 10 {
		t.Fatalf("paper suite at maxn 10 yielded only %d jobs", len(jobs))
	}
	return jobs
}

func rowsOf(results []Result) []bench.Row {
	rows := make([]bench.Row, len(results))
	for i, r := range results {
		rows[i] = r.Row
	}
	return rows
}

// The merged results must be identical whatever the concurrency level: the
// scheduler varies worker counts and completion order, never the rows.
func TestSweepDeterminismAcrossJobs(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)

	seq, err := Run(context.Background(), jobs, opt, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), jobs, opt, Options{Jobs: 4, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Row != par[i].Row {
			t.Errorf("%s: jobs=1 row %+v != jobs=4 row %+v", jobs[i].ID, seq[i].Row, par[i].Row)
		}
	}
}

// openStore opens a JSONL-backed result store that the test closes.
func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// A sweep killed after N cells and resumed must produce exactly the rows of
// an uninterrupted run, with the first run's cells served from the store.
func TestSweepStopAndResume(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	path := filepath.Join(t.TempDir(), "results.jsonl")

	full, err := Run(context.Background(), jobs, opt, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	const stopAfter = 4
	st := openStore(t, path)
	events := &eventLog{}
	goroutines := runtime.NumGoroutine()
	_, err = Run(context.Background(), jobs, opt, Options{
		Jobs: 2, Budget: 2, Store: st, StopAfter: stopAfter, Sink: events,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stop-after run returned %v, want ErrStopped", err)
	}
	checkCutShort(t, jobs, events, st, 2, goroutines)
	st.Close()

	// Resume from a fresh process's view: reopen the file, replaying it.
	resumed, err := Run(context.Background(), jobs, opt, Options{
		Jobs: 2, Budget: 2, Store: openStore(t, path),
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedCount := 0
	for _, r := range resumed {
		if r.Cached {
			cachedCount++
		}
	}
	if cachedCount < stopAfter {
		t.Errorf("resume served %d cells from the store, want >= %d", cachedCount, stopAfter)
	}
	if cachedCount == len(resumed) {
		t.Error("every cell was cached; the stop-after run did not stop early")
	}
	fullRows, resumedRows := rowsOf(full), rowsOf(resumed)
	for i := range fullRows {
		if fullRows[i] != resumedRows[i] {
			t.Errorf("%s: uninterrupted row %+v != resumed row %+v", jobs[i].ID, fullRows[i], resumedRows[i])
		}
	}
}

// Cells stored under different options must be ignored wholesale:
// resuming with a new seed re-runs every cell. A line left in the file by
// the former sweep checkpoint journal is skipped, not trusted.
func TestSweepResumeIgnoresStaleCheckpoint(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	path := filepath.Join(t.TempDir(), "results.jsonl")
	oldJournal := `{"v":1,"fp":"0123456789abcdef","job":"table9/n10","seq":0,"elapsed_sec":1,"row":{"Dims":10}}` + "\n"
	if err := os.WriteFile(path, []byte(oldJournal), 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, path)
	if _, err := Run(context.Background(), jobs, opt, Options{Jobs: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(jobs) {
		t.Fatalf("store holds %d entries after a %d-cell sweep", st.Len(), len(jobs))
	}

	newOpt := opt
	newOpt.Seed = 42
	newJobs := testJobs(t, newOpt)
	resumed, err := Run(context.Background(), newJobs, newOpt, Options{Jobs: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resumed {
		if r.Cached {
			t.Errorf("%s: cell served from a store filled under another seed", r.Job.ID)
		}
	}
}

// The traffic model is part of a cell's identity: a store filled by an
// MMPP sweep must not serve its rows to the paper's Bernoulli sweep. The
// former checkpoint fingerprint left traffic out and served exactly that.
func TestSweepStoreKeysTraffic(t *testing.T) {
	st := openStore(t, "")
	mmpp := testOptions()
	mmpp.Traffic = "mmpp"
	jobs, err := BuildJobs(SuitePaper, "table9", 10, mmpp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs, mmpp, Options{Jobs: 1, Store: st}); err != nil {
		t.Fatal(err)
	}

	paper := testOptions()
	paperJobs, err := BuildJobs(SuitePaper, "table9", 10, paper)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), paperJobs, paper, Options{Jobs: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), paperJobs, paper, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Cached {
			t.Errorf("%s: Bernoulli cell served from the MMPP run's store entry", r.Job.ID)
		}
		if r.Row != fresh[i].Row {
			t.Errorf("%s: row %+v != fresh Bernoulli row %+v", r.Job.ID, r.Row, fresh[i].Row)
		}
	}
}

// Cancellation must surface as a context error, not hang or a corrupt
// merge, whether it comes before the first cell or after one completed.
func TestSweepCancel(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	for _, tc := range []struct {
		name   string
		before bool // cancel before Run, or when the first cell completes
	}{
		{"before-start", true},
		{"after-first-cell", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events := &eventLog{}
			if tc.before {
				cancel()
			} else {
				events.onDone = cancel
			}
			st := openStore(t, "")
			goroutines := runtime.NumGoroutine()
			_, err := Run(ctx, jobs, opt, Options{Jobs: 2, Budget: 2, Store: st, Sink: events})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled sweep returned %v, want context.Canceled", err)
			}
			checkCutShort(t, jobs, events, st, 2, goroutines)
			if tc.before && len(events.starts) != 0 {
				t.Errorf("sweep canceled before it began started %d cells", len(events.starts))
			}
		})
	}
}

// eventLog records which cells a sweep started and completed.
type eventLog struct {
	mu            sync.Mutex
	starts, dones map[string]bool
	onDone        func() // called on the first completed cell
}

func (l *eventLog) OnSweepEvent(ev obs.SweepEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.starts == nil {
		l.starts, l.dones = map[string]bool{}, map[string]bool{}
	}
	switch ev.Kind {
	case obs.SweepJobStart:
		l.starts[ev.Job] = true
	case obs.SweepJobDone:
		l.dones[ev.Job] = true
		if l.onDone != nil {
			l.onDone()
			l.onDone = nil
		}
	}
}

// checkCutShort checks what a stopped or canceled sweep leaves behind: its
// scheduler's goroutines are gone, no cell that never ran was reported
// started (only the cells cut off mid-run by the stop, at most slots-1,
// started without completing), and the store holds exactly the completed
// cells.
func checkCutShort(t *testing.T, jobs []Job, events *eventLog, st *store.Store, slots, goroutines int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left running, %d before the sweep", runtime.NumGoroutine(), goroutines)
			break
		}
		time.Sleep(time.Millisecond)
	}
	events.mu.Lock()
	defer events.mu.Unlock()
	if cut := len(events.starts) - len(events.dones); cut > slots-1 {
		t.Errorf("%d cells started but did not complete; at most %d can be cut off mid-run", cut, slots-1)
	}
	for _, j := range jobs {
		_, stored := st.Get(j.c.Spec().Fingerprint(bench.BuildID()))
		if done := events.dones[j.ID]; stored != done {
			t.Errorf("%s: stored %v, completed %v", j.ID, stored, done)
		}
		if events.dones[j.ID] && !events.starts[j.ID] {
			t.Errorf("%s: completed without a start event", j.ID)
		}
	}
}

func TestBuildJobsShape(t *testing.T) {
	opt := testOptions()
	jobs, err := BuildJobs(SuiteAll, "", 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if j.Seq != i {
			t.Fatalf("job %s has Seq %d at position %d", j.ID, j.Seq, i)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job id %s", j.ID)
		}
		seen[j.ID] = true
		if j.Cost <= 0 {
			t.Errorf("%s: non-positive cost %f", j.ID, j.Cost)
		}
	}
	// The credited shuffle-exchange cells must be pinned to one worker:
	// their tie-breaking is worker-count dependent.
	sawShuffle := false
	for _, j := range jobs {
		if j.Exp == "ext-shuffle-random-n" || j.Exp == "ext-shuffle-random-dyn" {
			sawShuffle = true
			if j.Parallelizable {
				t.Errorf("%s: credited algorithm marked parallelizable", j.ID)
			}
		}
	}
	if !sawShuffle {
		t.Fatal("suite all did not include shuffle-exchange cells")
	}

	// The atomic engine ignores Workers: nothing is parallelizable there.
	aOpt := opt
	aOpt.Engine = "atomic"
	aJobs, err := BuildJobs(SuitePaper, "", 10, aOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range aJobs {
		if j.Parallelizable {
			t.Errorf("%s: atomic-engine cell marked parallelizable", j.ID)
		}
	}
}

func TestBuildJobsSingleTable(t *testing.T) {
	opt := testOptions()
	jobs, err := BuildJobs(SuitePaper, "table9", 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Exp != "table9" {
			t.Fatalf("table selector leaked job %s", j.ID)
		}
	}
	if len(jobs) != 3 { // n = 10, 11, 12
		t.Fatalf("table9 at maxn 12 yielded %d jobs, want 3", len(jobs))
	}
	if _, err := BuildJobs(SuitePaper, "no-such-table", 0, opt); err == nil {
		t.Fatal("unknown table accepted")
	}
}
