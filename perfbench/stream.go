package main

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
)

// reqKind is what a request of the service-mix stream is meant to be.
type reqKind uint8

const (
	kindWarm reqKind = iota // a repeat of a spec the store already holds
	kindCold                // a spec never sent before: scheduler, exec.Run, store Put
	kindDup                 // the previous cold spec again, sent while it is in flight
)

func (k reqKind) String() string {
	return [...]string{"warm", "cold", "dup"}[k]
}

type request struct {
	Spec exec.RunSpec
	Kind reqKind
	SSE  bool // stream progress over Server-Sent Events
}

// The service-mix request mix. Requests are drawn in blocks of coldEvery,
// each with exactly one cold request at a seeded position, and a cold
// request is followed by its duplicate with probability dupShare: about 91%
// of requests are warm, 5.7% cold and 2.9% duplicates. A third of the cold
// requests ask for an SSE progress stream. Fixing the cold count per block
// keeps the work per request the same from seed to seed.
//
// The warm set is every shape of the closed-form families and one shape of
// each generated-graph family: 34 specs, the same mix for every seed. A
// warm request validates its spec, and validating a generated-graph spec
// builds the graph and its route table (1-7 ms against microseconds), so
// the graph specs are kept to an eighth of the warm requests; the median
// warm request then lies well inside the cheap ones.
const (
	warmSpecs = 34
	coldEvery = 17
	dupShare  = 0.5 // of cold requests, followed by a duplicate
	sseShare  = 1.0 / 3
)

// stream generates the service-mix requests from a seed: the same seed
// gives the same requests in the same order. It is not safe for concurrent
// use; the clients share it under a lock.
type stream struct {
	rng    *rand.Rand
	warm   []exec.RunSpec
	base   int64 // spec seeds of this stream start here, so every cold spec is fresh
	start  int   // where in the cycle of cold shapes this stream begins
	draws  int64 // requests drawn, not counting duplicates
	coldAt int64 // position of the current block's cold request
	colds  int64
	dup    *request
}

func newStream(seed int64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), base: seed << 20}
	for k := 0; k < numShapes; k++ {
		sh := shapeAt(k)
		if smallFamilies[sh.family].algo != "graph-adaptive" || (sh.engine == "buffered" && sh.traffic == "bernoulli") {
			s.warm = append(s.warm, sh.spec(s.base+int64(len(s.warm))))
		}
	}
	s.start = s.rng.Intn(numShapes)
	return s
}

func (s *stream) next() request {
	if s.dup != nil {
		r := *s.dup
		s.dup = nil
		return r
	}
	pos := s.draws % coldEvery
	if pos == 0 {
		s.coldAt = s.rng.Int63n(coldEvery)
	}
	s.draws++
	if pos != s.coldAt {
		return request{Spec: s.warm[s.rng.Intn(len(s.warm))], Kind: kindWarm}
	}
	spec := shapeAt(s.start + int(s.colds)).spec(s.base + warmSpecs + s.colds)
	s.colds++
	sse := s.rng.Float64() < sseShare
	if s.rng.Float64() < dupShare {
		s.dup = &request{Spec: spec, Kind: kindDup}
	}
	return request{Spec: spec, Kind: kindCold, SSE: sse}
}

// smallFamilies covers every topology family with a network of a few
// hundred nodes, so a cold request costs tens of milliseconds. Each runs at
// a λ that both engines accept in full: the services' simulations time a
// flowing network, not a jammed one.
var smallFamilies = []struct {
	algo, topo string
	lambda     float64
}{
	{"hypercube-adaptive", "hypercube:8", 0.2},
	{"mesh-adaptive", "mesh:16x16", 0.05},
	{"torus-adaptive", "torus:16x16", 0.05},
	{"shuffle-adaptive", "shuffle:8", 0.01},
	{"ccc-adaptive", "ccc:5", 0.05},
	{"graph-adaptive", "graph:random-regular:n=256,k=4,seed=1", 0.2},
	{"graph-adaptive", "graph:dragonfly:a=8,g=17", 0.2},
	{"graph-adaptive", "graph:hyperx:8x8x4", 0.2},
	{"graph-adaptive", "graph:fat-tree:leaves=32,spines=8", 0.1},
}

// shape is a kind of cold spec: a family, an engine, and static injection
// or a dynamic Bernoulli or MMPP process.
type shape struct {
	family          int
	engine, traffic string
}

var variants = [...]struct{ engine, traffic string }{
	{"buffered", "static"}, {"buffered", "bernoulli"}, {"buffered", "mmpp"},
	{"atomic", "static"}, {"atomic", "bernoulli"}, {"atomic", "mmpp"},
}

var numShapes = len(smallFamilies) * len(variants)

// shapeAt is the k-th shape of the cycle the cold requests walk through,
// which holds every family x variant once. Consecutive shapes step through
// the families, and each pass over the families shifts every family's
// variant, so any stretch of the cycle mixes cheap and costly shapes and a
// run's cold work hardly depends on where in the cycle it starts or stops.
func shapeAt(k int) shape {
	k %= numShapes
	f, pass := k%len(smallFamilies), k/len(smallFamilies)
	v := variants[(pass+f)%len(variants)]
	return shape{f, v.engine, v.traffic}
}

// spec builds the shape's spec; seed makes it unique.
func (sh shape) spec(seed int64) exec.RunSpec {
	f := smallFamilies[sh.family]
	s := exec.RunSpec{Algo: f.algo, Topology: f.topo, Engine: sh.engine, Seed: seed}
	switch sh.traffic {
	case "static":
		s.Inject, s.Packets = "static", 2
	case "mmpp":
		// Bursts at twice the family's λ half of the time, silence otherwise.
		s.Traffic = fmt.Sprintf("mmpp:on=%g,off=0,p10=0.1,p01=0.1", 2*f.lambda)
		fallthrough
	default:
		s.Inject, s.Lambda, s.Warmup, s.Measure = "dynamic", f.lambda, 200, 800
	}
	return s
}
