package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engines")

// goldenCell is one pinned run: its Metrics and the final metric snapshot.
type goldenCell struct {
	Name     string       `json:"name"`
	Metrics  sim.Metrics  `json:"metrics"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// TestGolden pins both engines' output across commits: every cell of the
// engine x algorithm x traffic x fault grid must reproduce the Metrics and
// the final obs snapshot recorded in testdata/golden.json byte for byte.
// Regenerate with `go test ./internal/sim -run TestGolden -update` only
// when a change is meant to alter simulation results.
func TestGolden(t *testing.T) {
	engines := []string{"buffered", "atomic"}
	algos := []string{
		"hypercube-adaptive:6",
		"mesh-adaptive:8x8",
		"shuffle-adaptive:6", // credited bubble moves
		"graph-adaptive:dragonfly:a=4,g=9",
	}
	traffics := []string{"static", "bernoulli", "mmpp"}
	faults := []string{"", "links:0.05@0,node:5@40+60"}

	var cells []goldenCell
	for _, eng := range engines {
		for _, algoSpec := range algos {
			for _, tr := range traffics {
				for _, fs := range faults {
					name := fmt.Sprintf("%s/%s/%s/faults=%q", eng, algoSpec, tr, fs)
					cells = append(cells, runGoldenCell(t, name, eng, algoSpec, tr, fs))
				}
			}
		}
	}
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantCells []goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(wantCells) != len(cells) {
		t.Fatalf("golden has %d cells, grid has %d", len(wantCells), len(cells))
	}
	for i := range cells {
		g, _ := json.Marshal(cells[i])
		w, _ := json.Marshal(wantCells[i])
		if !bytes.Equal(g, w) {
			t.Errorf("cell %s differs:\n got  %s\n want %s", cells[i].Name, g, w)
		}
	}
	t.Error("output differs from testdata/golden.json")
}

func runGoldenCell(t *testing.T, name, eng, algoSpec, tr, faultSpec string) goldenCell {
	t.Helper()
	algo, err := spec.Algorithm(algoSpec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := algo.Topology().Nodes()
	pat, err := spec.Pattern("random", algo, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Algorithm: algo, Seed: 1, Metrics: true}
	if faultSpec != "" {
		if cfg.Faults, err = fault.ParseSpec(faultSpec); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sim.NewSimulator(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var src sim.TrafficSource
	plan := sim.DynamicPlan(100, 300)
	switch tr {
	case "static":
		src = traffic.NewStaticSource(pat, nodes, 2, 3)
		plan = sim.StaticPlan(100000)
	case "bernoulli":
		src = traffic.NewBernoulliSource(pat, nodes, 0.4, 3)
	default:
		ts, err := spec.ParseTraffic(tr)
		if err != nil {
			t.Fatal(err)
		}
		if src, err = ts.Build(pat, nodes, 0.4, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run(context.Background(), src, plan)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return goldenCell{Name: name, Metrics: res.Metrics, Snapshot: res.Snapshot}
}
