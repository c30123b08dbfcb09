package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
)

// TestGeneratedTopologiesEndToEnd sweeps a seed grid of generated
// networks and requires, for every instance: the derived hop-layered
// queue order passes the mechanical QDG acyclicity check, both engines
// deliver every injected packet, and the buffered engine's metrics are
// bit-identical between one and two workers (the determinism contract
// the closed-form topologies already honour).
func TestGeneratedTopologiesEndToEnd(t *testing.T) {
	var gens []string
	for seed := int64(1); seed <= 4; seed++ {
		gens = append(gens, fmt.Sprintf("random-regular:n=24,k=3,seed=%d", seed))
		gens = append(gens, fmt.Sprintf("random-regular:n=32,k=4,seed=%d", seed))
	}
	gens = append(gens,
		"dragonfly:a=2,g=5", "dragonfly:a=3,g=7", "dragonfly:a=4,g=9",
		"hyperx:3x3", "fat-tree:leaves=6,spines=3",
	)
	for _, gen := range gens {
		t.Run(gen, func(t *testing.T) {
			algo, err := repro.NewAlgorithm("graph-adaptive:" + gen)
			if err != nil {
				t.Fatal(err)
			}
			if err := repro.VerifyDeadlockFree(algo); err != nil {
				t.Fatalf("derived queue order is not deadlock-free: %v", err)
			}
			pat, err := repro.NewPattern("random", algo, 11)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(algo.Topology().Nodes() * 3)
			run := func(kind string, workers int, scanPath bool) repro.Metrics {
				t.Helper()
				a := algo
				if scanPath {
					a = algo.(interface{ WithoutRouteTable() repro.Algorithm }).WithoutRouteTable()
				}
				eng, err := repro.NewSimulator(kind, repro.Config{
					Algorithm: a, Seed: 5, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				src := repro.NewStaticTraffic(pat, algo, 3, 13)
				res, err := eng.Run(context.Background(), src, repro.StaticPlan(1_000_000))
				if err != nil {
					t.Fatal(err)
				}
				return res.Metrics
			}
			// The default path routes through the compiled next-hop tables;
			// workers 1 vs 2 must stay bit-identical on it, and the
			// uncompiled scan path (WithoutRouteTable) must produce
			// the same metrics bit for bit.
			m1 := run("buffered", 1, false)
			if m1.Delivered != want {
				t.Fatalf("buffered delivered %d of %d", m1.Delivered, want)
			}
			if m2 := run("buffered", 2, false); m2 != m1 {
				t.Fatalf("metrics depend on worker count:\n 1: %+v\n 2: %+v", m1, m2)
			}
			if ms := run("buffered", 1, true); ms != m1 {
				t.Fatalf("table and scan paths disagree:\n table: %+v\n scan:  %+v", m1, ms)
			}
			ma := run("atomic", 1, false)
			if ma.Delivered != want {
				t.Fatalf("atomic delivered %d of %d", ma.Delivered, want)
			}
			if mas := run("atomic", 1, true); mas != ma {
				t.Fatalf("atomic table and scan paths disagree:\n table: %+v\n scan:  %+v", ma, mas)
			}
		})
	}
}
