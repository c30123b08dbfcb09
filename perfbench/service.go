package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// serviceTraceRequests is the length of each service-mix pass of the
// traced run: enough cold and SSE requests for their medians.
const serviceTraceRequests = 2500

type execFunc = func(ctx context.Context, s exec.RunSpec, o obs.Observer) (exec.Result, error)

// daemonInst is one in-process routesimd: a JSONL-backed store, the daemon
// with routesimd's default settings, and an HTTP server on loopback.
type daemonInst struct {
	st     *store.Store
	srv    *daemon.Server
	hs     *http.Server
	base   string
	served chan error
}

// startDaemon opens the store at path and serves a daemon over it, and
// returns once /healthz answers. ex, when non-nil, replaces exec.Run.
func startDaemon(path string, ex execFunc) (*daemonInst, error) {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := daemon.New(daemon.Config{Store: st, Jobs: 1, Budget: runtime.GOMAXPROCS(0), QueueCap: 16, Exec: ex})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	d := &daemonInst{st: st, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := oneShot().Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// oneShot is a client whose connections close after each request, so
// nothing of a probe stays alive to be counted in a later heap figure.
func oneShot() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// close stops the server and waits for it, then the daemon and the store.
func (d *daemonInst) close() error {
	d.hs.Close()
	<-d.served
	d.srv.Close()
	return d.st.Close()
}

// promValues reads the daemon's /metrics page into name -> value.
func (d *daemonInst) promValues() (map[string]float64, error) {
	resp, err := oneShot().Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// reply is one request as the client saw it.
type reply struct {
	req        request
	start, end time.Time
	resp       daemon.Response
	err        error
}

func (p reply) ms() float64 { return ms(p.end.Sub(p.start)) }

// cold reports a request that led a fresh simulation.
func (p reply) cold() bool { return p.err == nil && !p.resp.Cached && !p.resp.Coalesced }

func send(c *http.Client, base string, req request) reply {
	p := reply{req: req}
	body, err := json.Marshal(req.Spec)
	if err != nil {
		p.err = err
		return p
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		p.err = err
		return p
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.SSE {
		hr.Header.Set("Accept", "text/event-stream")
	}
	p.start = time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		p.end, p.err = time.Now(), err
		return p
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.end = time.Now()
	switch {
	case err != nil:
		p.err = err
	case resp.StatusCode != http.StatusOK:
		p.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	case req.SSE:
		p.err = sseResult(data, &p.resp)
	default:
		p.err = json.Unmarshal(data, &p.resp)
	}
	return p
}

// sseResult finds the terminal "result" event of an SSE body.
func sseResult(data []byte, into *daemon.Response) error {
	for _, ev := range strings.Split(string(data), "\n\n") {
		var name, payload string
		for _, l := range strings.Split(ev, "\n") {
			if v, ok := strings.CutPrefix(l, "event: "); ok {
				name = v
			} else if v, ok := strings.CutPrefix(l, "data: "); ok {
				payload = v
			}
		}
		switch name {
		case "result":
			return json.Unmarshal([]byte(payload), into)
		case "error":
			return fmt.Errorf("SSE error event: %s", payload)
		}
	}
	return fmt.Errorf("SSE stream without a result event")
}

// drive runs the closed loop: the given number of clients, each sending
// its next request from the shared stream only after the previous reply is
// read, until more(sent) returns false. Replies come back in send order.
func drive(base string, s *stream, clients int, more func(sent int) bool) []reply {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	var (
		mu   sync.Mutex
		sent int
		wg   sync.WaitGroup
	)
	take := func() (request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !more(sent) {
			return request{}, false
		}
		sent++
		return s.next(), true
	}
	per := make([][]reply, clients)
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				req, ok := take()
				if !ok {
					return
				}
				per[i] = append(per[i], send(c, base, req))
			}
		}(i)
	}
	wg.Wait()
	var all []reply
	for _, ps := range per {
		all = append(all, ps...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	return all
}

// checkReplies compares every reply's metrics with a direct exec.Run of
// its spec, whether the reply was led, coalesced or cached. The direct runs
// use the sequential engine path: results of parallelizable specs do not
// depend on the worker count, and the others run on one worker in the
// daemon too.
func checkReplies(ctx context.Context, r *run, replies []reply, want map[string]sim.Metrics) error {
	id := bench.BuildID()
	var todo []exec.RunSpec
	seen := map[string]bool{}
	for _, p := range replies {
		fp := p.req.Spec.Fingerprint(id)
		if _, ok := want[fp]; !ok && !seen[fp] {
			seen[fp] = true
			todo = append(todo, p.req.Spec)
		}
	}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		firstEr error
		next    int
	)
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(todo) || firstEr != nil {
					mu.Unlock()
					return
				}
				spec := todo[next]
				next++
				mu.Unlock()
				res, err := exec.Run(ctx, spec, nil)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = fmt.Errorf("direct run of %+v: %w", spec, err)
				}
				want[spec.Fingerprint(id)] = res.Metrics
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	for i, p := range replies {
		if p.err != nil {
			r.op(false, 1, "request %d (%s): %v", i, p.req.Kind, p.err)
			continue
		}
		m := want[p.req.Spec.Fingerprint(id)]
		r.op(p.resp.Metrics == m, 1, "request %d (%s, cached=%v coalesced=%v): metrics %+v, direct run %+v",
			i, p.req.Kind, p.resp.Cached, p.resp.Coalesced, p.resp.Metrics, m)
	}
	return nil
}

// warmStore writes a store file holding the stream's warm specs by posting
// each once to a daemon over it.
func warmStore(path string, s *stream) error {
	d, err := startDaemon(path, nil)
	if err != nil {
		return err
	}
	c := oneShot()
	for _, spec := range s.warm {
		if p := send(c, d.base, request{Spec: spec}); p.err != nil {
			d.close()
			return fmt.Errorf("warming the store: %w", p.err)
		}
	}
	return d.close()
}

// serviceMix measures an in-process routesimd under the closed-loop
// request stream and checks every reply against a direct run.
func serviceMix(ctx context.Context, r *run) error {
	dir, err := os.MkdirTemp(r.outDir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.jsonl")
	s := newStream(r.seed)
	if err := warmStore(path, s); err != nil {
		return err
	}

	var d *daemonInst
	var setup []float64
	for i := 0; i < 41; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		c0 := cpuTime()
		if d, err = startDaemon(path, nil); err != nil {
			return err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
	}
	r.set("setup_s", median(setup))
	r.set("heap_mb", liveHeapMB())

	deadline := time.Now().Add(r.seconds)
	c0 := cpuTime()
	replies := drive(d.base, s, r.nproc, func(int) bool { return time.Now().Before(deadline) })
	cpu := (cpuTime() - c0).Seconds()
	prom, perr := d.promValues()
	if err := d.close(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}

	// Replies are in send order, so the run starts with the first.
	var all, warm, cold []float64
	var coalesced int
	first, last := replies[0].start, replies[0].end
	for _, p := range replies {
		all = append(all, p.ms())
		switch {
		case p.err != nil:
		case p.resp.Cached:
			warm = append(warm, p.ms())
		case p.resp.Coalesced:
			coalesced++
		default:
			cold = append(cold, p.ms())
		}
		if p.end.After(last) {
			last = p.end
		}
	}
	p50, err := percentile(all, 0.5)
	if err != nil {
		return err
	}
	r.set("ops_per_s", float64(len(replies))/cpu)
	r.set("op_p50_ms", p50)

	r.info("req_per_s", float64(len(replies))/last.Sub(first).Seconds(), "1/s", len(replies))
	r.infoPct("warm_p50_ms", warm, 0.5)
	r.infoPct("warm_p99_ms", warm, 0.99)
	r.infoPct("cold_p50_ms", cold, 0.5)
	r.infoPct("cold_p95_ms", cold, 0.95)
	r.info("coalesced", float64(coalesced), "count", len(replies))
	r.info("store_hit_ratio", prom["repro_store_hits_total"]/(prom["repro_store_hits_total"]+prom["repro_store_misses_total"]), "frac", len(replies))

	want := map[string]sim.Metrics{}
	if err := checkReplies(ctx, r, replies, want); err != nil {
		return err
	}
	r.label = saturationLabel(coldAccepted(replies))
	return nil
}

// coldAccepted is the accepted share of offered load over the dynamic
// simulations the cold requests ran.
func coldAccepted(replies []reply) float64 {
	var att, succ int64
	for _, p := range replies {
		if p.cold() {
			att += p.resp.Metrics.Attempts
			succ += p.resp.Metrics.Successes
		}
	}
	if att == 0 {
		return 1
	}
	return float64(succ) / float64(att)
}

// execTimes records when each leader's run entered and left the daemon's
// executor, keyed by fingerprint.
type execTimes struct {
	mu    sync.Mutex
	spans map[string][2]time.Time
}

func (e *execTimes) wrap(ctx context.Context, s exec.RunSpec, o obs.Observer) (exec.Result, error) {
	t0 := time.Now()
	res, err := exec.Run(ctx, s, o)
	t1 := time.Now()
	e.mu.Lock()
	e.spans[s.Fingerprint(bench.BuildID())] = [2]time.Time{t0, t1}
	e.mu.Unlock()
	return res, err
}

// serviceLayers is the service-mix part of the traced run: the same
// request stream through an untraced daemon and a daemon whose executor is
// timed, splitting each cold request into pre-exec, exec and post-exec;
// then spec validation, fingerprinting and store Get/Put timed on the
// stream's specs and results.
func serviceLayers(ctx context.Context, r *run, tr *tracer) error {
	dir, err := os.MkdirTemp(r.outDir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warmPath := filepath.Join(dir, "warm.jsonl")
	if err := warmStore(warmPath, newStream(r.seed)); err != nil {
		return err
	}
	count := func(sent int) bool { return sent < serviceTraceRequests }

	pass := func(name string, ex execFunc) ([]reply, map[string]float64, float64, error) {
		path := filepath.Join(dir, name+".jsonl")
		if err := copyFile(warmPath, path); err != nil {
			return nil, nil, 0, err
		}
		d, err := startDaemon(path, ex)
		if err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		replies := drive(d.base, newStream(r.seed), r.nproc, count)
		wall := time.Since(t0).Seconds()
		prom, perr := d.promValues()
		if err := d.close(); err != nil {
			return nil, nil, 0, err
		}
		return replies, prom, wall, perr
	}
	// Untraced, traced, untraced, each over a copy of the warm store: the
	// overhead compares the traced pass with the mean of the passes around
	// it.
	plainA, _, wallA, err := pass("untraced-a", nil)
	if err != nil {
		return err
	}
	et := &execTimes{spans: map[string][2]time.Time{}}
	replies, prom, wall, err := pass("traced", et.wrap)
	if err != nil {
		return err
	}
	plainB, _, wallB, err := pass("untraced-b", nil)
	if err != nil {
		return err
	}
	r.set("trace.service_overhead_frac", 2*wall/(wallA+wallB)-1)

	id := bench.BuildID()
	var pre, execMS, post, sse []float64
	for i, p := range replies {
		op := "req-" + strconv.Itoa(i)
		root := tr.add("daemon.request", op, 0, p.start, p.end)
		iv, ok := et.spans[p.req.Spec.Fingerprint(id)]
		if !p.cold() || !ok {
			continue
		}
		tr.add("daemon.pre_exec", op, root, p.start, iv[0])
		tr.add("exec.run", op, root, iv[0], iv[1])
		tr.add("daemon.post_exec", op, root, iv[1], p.end)
		pre = append(pre, ms(iv[0].Sub(p.start)))
		execMS = append(execMS, ms(iv[1].Sub(iv[0])))
		post = append(post, ms(p.end.Sub(iv[1])))
		if p.req.SSE {
			sse = append(sse, p.ms())
		}
	}
	for name, xs := range map[string][]float64{
		"daemon.pre_exec_ms_p50": pre, "daemon.exec_ms_p50": execMS,
		"daemon.post_exec_ms_p50": post, "obs.sse_cold_p50_ms": sse,
	} {
		v, err := percentile(xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(name, v)
	}
	hits, misses := prom["repro_store_hits_total"], prom["repro_store_misses_total"]
	r.set("store.hit_ratio", hits/(hits+misses))
	r.set("store.puts", prom["repro_store_puts_total"])
	r.set("store.evictions", prom["repro_store_evictions_total"])
	r.set("daemon.executed", prom["repro_daemon_executed_total"])
	r.set("daemon.coalesced", prom["repro_daemon_coalesced_total"])
	r.set("daemon.rejected", prom["repro_daemon_rejected_total"])

	var validate, fingerprint []float64
	for _, p := range replies {
		t0 := time.Now()
		err := p.req.Spec.Validate()
		t1 := time.Now()
		_ = p.req.Spec.Fingerprint(id)
		t2 := time.Now()
		if err != nil {
			return err
		}
		validate = append(validate, float64(t1.Sub(t0))/1e3)
		fingerprint = append(fingerprint, float64(t2.Sub(t1))/1e3)
	}
	r.set("exec.validate_us_p50", median(validate))
	r.set("exec.fingerprint_us_p50", median(fingerprint))

	if err := storeReplay(r, filepath.Join(dir, "replay.jsonl"), replies); err != nil {
		return err
	}

	want := map[string]sim.Metrics{}
	for _, rs := range [][]reply{plainA, replies, plainB} {
		if err := checkReplies(ctx, r, rs, want); err != nil {
			return err
		}
	}
	r.labels["service-mix"] = saturationLabel(coldAccepted(replies))
	return nil
}

// storeReplay times store Put (append plus fsync) and Get on a store of the
// daemon's kind, replaying the keys and result blobs of the cold replies.
func storeReplay(r *run, path string, replies []reply) error {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return err
	}
	id := bench.BuildID()
	var keys []string
	var put, get []float64
	for _, p := range replies {
		if !p.cold() {
			continue
		}
		blob, err := json.Marshal(p.resp.Result)
		if err != nil {
			st.Close()
			return err
		}
		key := p.req.Spec.Fingerprint(id)
		t0 := time.Now()
		err = st.Put(key, blob)
		put = append(put, float64(time.Since(t0))/1e3)
		if err != nil {
			st.Close()
			return err
		}
		keys = append(keys, key)
	}
	for i := 0; i < 20; i++ {
		for _, k := range keys {
			t0 := time.Now()
			_, ok := st.Get(k)
			get = append(get, float64(time.Since(t0))/1e3)
			r.op(ok, 1, "store replay: key %s missing after Put", k)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	r.set("store.put_us_p50", median(put))
	r.set("store.get_us_p50", median(get))
	return nil
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}
