package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
)

func TestStreamSameSeedSameRequests(t *testing.T) {
	a, b, c := newStream(7), newStream(7), newStream(8)
	same := true
	for i := 0; i < 5000; i++ {
		ra, rb, rc := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("request %d differs for the same seed: %+v vs %+v", i, ra, rb)
		}
		same = same && reflect.DeepEqual(ra, rc)
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestStreamShares(t *testing.T) {
	const n = 40000
	s := newStream(3)
	id := bench.BuildID()
	warm := map[string]bool{}
	for _, w := range s.warm {
		warm[w.Fingerprint(id)] = true
	}
	counts := map[reqKind]int{}
	sse := 0
	colds := map[string]bool{}
	families := map[string]bool{}
	engines := map[string]bool{}
	mmpp := 0
	var prev request
	block, coldsInBlock := int64(-1), 0
	for i := 0; i < n; i++ {
		r := s.next()
		if r.Kind != kindDup {
			if b := (s.draws - 1) / coldEvery; b != block {
				if block >= 0 && coldsInBlock != 1 {
					t.Fatalf("block %d holds %d cold requests, want 1", block, coldsInBlock)
				}
				block, coldsInBlock = b, 0
			}
		}
		counts[r.Kind]++
		fp := r.Spec.Fingerprint(id)
		switch r.Kind {
		case kindWarm:
			if !warm[fp] {
				t.Fatalf("warm request %d is not in the warm set", i)
			}
		case kindCold:
			coldsInBlock++
			if warm[fp] || colds[fp] {
				t.Fatalf("cold request %d repeats an earlier spec", i)
			}
			if err := r.Spec.Validate(); err != nil {
				t.Fatalf("cold request %d: %v", i, err)
			}
			colds[fp] = true
			families[r.Spec.Topology] = true
			engines[r.Spec.Engine] = true
			if r.SSE {
				sse++
			}
			if r.Spec.Traffic != "" {
				mmpp++
			}
		case kindDup:
			if prev.Kind != kindCold || !reflect.DeepEqual(prev.Spec, r.Spec) {
				t.Fatalf("duplicate request %d does not follow its cold request", i)
			}
		}
		prev = r
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("%s share = %.4f, want %.4f within 10%%", name, got, want)
		}
	}
	draws := n - counts[kindDup]
	if want := (draws + coldEvery - 1) / coldEvery; counts[kindCold] != want && counts[kindCold] != want-1 {
		t.Errorf("%d cold requests in %d draws, want one per block of %d", counts[kindCold], draws, coldEvery)
	}
	near("dup of cold", float64(counts[kindDup])/float64(counts[kindCold]), dupShare)
	near("sse of cold", float64(sse)/float64(counts[kindCold]), sseShare)
	near("mmpp of cold", float64(mmpp)/float64(counts[kindCold]), 1.0/3)
	if len(s.warm) != warmSpecs {
		t.Errorf("warm set has %d specs, want %d", len(s.warm), warmSpecs)
	}
	if len(families) != len(smallFamilies) || len(engines) != 2 {
		t.Errorf("cold specs cover %d families and %d engines, want %d and 2", len(families), len(engines), len(smallFamilies))
	}
}

func TestShapeCycleCoversEveryShapeOnce(t *testing.T) {
	seen := map[shape]bool{}
	for k := 0; k < numShapes; k++ {
		seen[shapeAt(k)] = true
	}
	if len(seen) != numShapes {
		t.Fatalf("the cold cycle holds %d distinct shapes, want %d", len(seen), numShapes)
	}
}
