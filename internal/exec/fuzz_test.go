package exec

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// fuzzMaxNodes bounds the networks the fuzz target builds, so Validate
// stays cheap on any input (the grammar admits up to 2^30 nodes).
const fuzzMaxNodes = 1024

// fuzzSeeds are the specs of the spec tests, valid and invalid, as the
// daemon receives them.
var fuzzSeeds = []string{
	`{"algo":"hypercube-adaptive:4","seed":1}`,
	`{"algo":"hypercube-adaptive:10","pattern":"transpose","inject":"dynamic","seed":7}`,
	`{"algo":"hypercube-hung:6","policy":"random","seed":2}`,
	`{"algo":"hypercube-ecube:5","engine":"atomic","seed":3}`,
	`{"algo":"mesh-adaptive:16x16","pattern":"mesh-transpose","seed":4,"queue_cap":7}`,
	`{"algo":"mesh-twophase:8x8","inject":"dynamic","lambda":0.08,"seed":5}`,
	`{"algo":"torus-adaptive:8x8","faults":"links:0.05@0","hop_budget":12,"seed":8}`,
	`{"algo":"shuffle-adaptive:5","engine":"atomic","seed":9}`,
	`{"algo":"ccc-adaptive:4","pattern":"hotspot:0.3","seed":12}`,
	`{"algo":"torus-adaptive:4x3x3","workers":8,"rebalance_every":64,"seed":14}`,
	`{"v":1,"algo":"graph-adaptive:dragonfly:a=2,g=5","packets":1,"seed":3}`,
	`{"algo":"graph-adaptive","topology":"graph:random-regular:n=16,k=3,seed=1"}`,
	`{"algo":"hypercube-adaptive","topology":"hypercube:4"}`,
	`{"algo":"hypercube-adaptive:4","inject":"dynamic","traffic":"mmpp:on=0.8"}`,
	`{"algo":"hypercube-adaptive:4","traffic":"trace:run.jsonl"}`,
	`{"algo":"hypercube-adaptive:4","traffic":"bernoulli"}`,
	`{"algo":"hypercube-adaptive:4","v":3}`,
	`{"algo":"hypercube-adaptive:4","engine":"atomic","workers":2}`,
	`{"algo":"hypercube-adaptive:6","topology":"hypercube:5"}`,
	`{"algo":"mesh-adaptive","topology":"hypercube:4","engine":"quantum"}`,
	`{"algo":"graph-adaptive","topology":"graph:dragonfly:a=4,g=10"}`,
	`{"algo":"hypercube-adaptive:4","pattern":"zigzag","workers":-1}`,
	`{"algo":"hypercube-adaptive:4","inject":"dynamic","lambda":2}`,
	`{"algo":"hypercube-adaptive:4","faults":"link:1:2"}`,
}

// FuzzRunSpec feeds RunSpec JSON through Canon, Check, Validate, Source and
// Fingerprint, and checks the properties the daemon's store-hit path rests
// on. workers, v and twist perturb the fields the fingerprint does not key,
// making a twin of the decoded spec.
func FuzzRunSpec(f *testing.F) {
	for _, s := range fuzzSeeds {
		for _, twist := range []uint8{0, 1, 2, 4} {
			f.Add([]byte(s), 0, 0, twist)
		}
		f.Add([]byte(s), 2, 3, uint8(0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte, workers, v int, twist uint8) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s RunSpec
		if dec.Decode(&s) != nil {
			return
		}
		c := s.Canon()
		if cc := c.Canon(); cc != c {
			t.Fatalf("Canon is not idempotent:\n%+v\n%+v", c, cc)
		}
		fp := s.Fingerprint("fuzz")
		if c.Fingerprint("fuzz") != fp {
			t.Fatal("the canonical spec has a different fingerprint")
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var r RunSpec
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		if r.Fingerprint("fuzz") != fp {
			t.Fatalf("fingerprint changed across a JSON re-encode of %s", b)
		}

		if topo, err := spec.Topology(c.Topology); err == nil && topo.Nodes() > fuzzMaxNodes {
			return
		}
		verr := checkAgrees(t, s)
		if verr != nil {
			return
		}
		tw := twin(s, workers, v, twist)
		if tw.Fingerprint("fuzz") != fp {
			t.Fatalf("twin %+v of %+v changed the fingerprint", tw, s)
		}
		if tw.Check() == nil {
			if err := tw.Validate(); err != nil {
				t.Fatalf("twin %+v of valid %+v passes Check but fails Validate: %v", tw, s, err)
			}
		}
		checkAgrees(t, tw)
	})
}

// checkAgrees checks that a failing Check reports Validate's error, and
// that Source, which skips the route table, fails with Validate's error
// whenever Validate fails. It returns Validate's error.
func checkAgrees(t *testing.T, s RunSpec) error {
	t.Helper()
	verr := s.Validate()
	if cerr := s.Check(); cerr != nil && (verr == nil || cerr.Error() != verr.Error()) {
		t.Fatalf("%+v: Check says %v, Validate says %v", s, cerr, verr)
	}
	if verr != nil {
		if _, _, serr := s.Source(); serr == nil || serr.Error() != verr.Error() {
			t.Fatalf("%+v: Source says %v, Validate says %v", s, serr, verr)
		}
	}
	return verr
}

// twin returns s with only the fields the fingerprint does not key
// changed: the execution knobs, the schema version, the combined or split
// algo spelling, an explicit default traffic model, and the parameters of
// the other injection model, which Canon zeroes.
func twin(s RunSpec, workers, v int, twist uint8) RunSpec {
	t := s
	t.Workers, t.V = workers, v
	t.RebalanceEvery = int(twist >> 4)
	c := s.Canon()
	if twist&1 != 0 {
		if combined, ok := spec.JoinAlgo(c.Algo, c.Topology); ok {
			t.Algo, t.Topology = combined, ""
		} else {
			t.Algo, t.Topology = c.Algo, c.Topology
		}
	}
	if twist&2 != 0 {
		switch c.Traffic {
		case "":
			t.Traffic = "bernoulli"
		case "bernoulli":
			t.Traffic = ""
		}
	}
	if twist&4 != 0 {
		if c.Inject == "static" {
			t.Lambda, t.Warmup, t.Measure = float64(workers), int64(v), -1
		} else {
			t.Packets, t.MaxCycles = workers, int64(v)
		}
	}
	return t
}
