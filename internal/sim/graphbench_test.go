package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkGraphStep measures one Step of a warmed graph-adaptive run, per
// engine and generator family, on both routing paths: the compiled next-hop
// route tables (the default) and the uncompiled interface-scan fallback
// (GraphAdaptive.WithoutRouteTable). The table's win grows with port count — the
// scan pays two interface calls per port per decision, the table one load —
// so the high-radix families (hyperx, fat-tree) separate the paths hardest.
// The cross-cell trajectory lives in BENCH_engine.json (cmd/enginebench);
// these exist for quick same-host A/B and profiling of the routing share.
func BenchmarkGraphStep(b *testing.B) {
	families := []struct {
		name   string
		build  func() (*topology.Graph, error)
		lambda float64
	}{
		{"random-regular-256", func() (*topology.Graph, error) { return topology.NewRandomRegular(256, 4, 1) }, 0.05},
		{"hyperx-16x16", func() (*topology.Graph, error) { return topology.NewHyperX(16, 16) }, 0.1},
		{"fat-tree-32x16", func() (*topology.Graph, error) { return topology.NewFatTree(32, 16) }, 0.1},
	}
	for _, engine := range []string{"buffered", "atomic"} {
		for _, fam := range families {
			for _, path := range []struct {
				name string
				scan bool
			}{{"table", false}, {"scan", true}} {
				b.Run(engine+"/"+fam.name+"/"+path.name, func(b *testing.B) {
					g, err := fam.build()
					if err != nil {
						b.Fatal(err)
					}
					ga, err := core.NewGraphAdaptive(g)
					if err != nil {
						b.Fatal(err)
					}
					var algo core.Algorithm = ga
					if path.scan {
						algo = ga.WithoutRouteTable()
					}
					eng, err := NewSimulator(engine, Config{Algorithm: algo, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					nodes := g.Nodes()
					src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, fam.lambda, 3)
					eng.Start(src, DynamicPlan(0, 1<<30))
					for i := 0; i < 100; i++ {
						eng.Step()
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.Step()
					}
				})
			}
		}
	}
}
