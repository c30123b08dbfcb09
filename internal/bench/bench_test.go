package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sim"
)

// cell is what the tests need of a paper table or an extended experiment.
type cell interface {
	Spec(size int, opt Options) (exec.RunSpec, error)
	Row(size int, m sim.Metrics) Row
}

// runCell runs one cell the way the sweep does: its RunSpec through the
// executor, its row from the run's metrics.
func runCell(ex cell, size int, opt Options) (Row, error) {
	s, err := ex.Spec(size, opt)
	if err != nil {
		return Row{}, err
	}
	res, err := exec.Run(context.Background(), s, nil)
	if err != nil {
		return Row{}, err
	}
	return ex.Row(size, res.Metrics), nil
}

func TestTablesComplete(t *testing.T) {
	tables := Tables()
	if len(tables) != 12 {
		t.Fatalf("got %d experiments, want 12", len(tables))
	}
	for i, ex := range tables {
		if want := "table" + string(rune('1'+i)); i < 9 && ex.ID != want {
			t.Errorf("experiment %d id = %q, want %q", i, ex.ID, want)
		}
		if len(ex.Paper) < 5 {
			t.Errorf("%s: only %d paper rows", ex.ID, len(ex.Paper))
		}
		for _, r := range ex.Paper {
			if r.Lavg <= 0 || r.Lmax <= 0 {
				t.Errorf("%s: bad paper row %+v", ex.ID, r)
			}
			if ex.Injection == Dynamic && r.Ir <= 0 {
				t.Errorf("%s: dynamic row missing Ir: %+v", ex.ID, r)
			}
		}
	}
}

func TestFindTable(t *testing.T) {
	ex, err := FindTable("table7")
	if err != nil || ex.Pattern != Transp || ex.Injection != StaticN {
		t.Fatalf("FindTable(table7) = %+v, %v", ex, err)
	}
	if _, err := FindTable("table99"); err == nil {
		t.Fatal("FindTable accepted a bogus id")
	}
}

// TestRunStaticTables runs the four static-1 experiments at a small size and
// sanity-checks the measured values against the analytic expectations that
// also hold at n=6: complement is exactly 2n+1, the others are near their
// mean distance times two plus one.
func TestRunStaticTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		ex, err := FindTable(id)
		if err != nil {
			t.Fatal(err)
		}
		row, err := runCell(ex, 6, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if row.Delivered != 64 {
			t.Errorf("%s: delivered %d, want 64", id, row.Delivered)
		}
		if row.Lavg < 5 || row.Lavg > 14 {
			t.Errorf("%s: implausible Lavg %.2f", id, row.Lavg)
		}
		if id == "table2" && row.Lavg != 13 {
			t.Errorf("table2: Lavg = %.2f, want exactly 2n+1 = 13", row.Lavg)
		}
	}
}

// TestRunDynamicTable smoke-tests a dynamic experiment at a small size.
func TestRunDynamicTable(t *testing.T) {
	ex, err := FindTable("table9")
	if err != nil {
		t.Fatal(err)
	}
	row, err := runCell(ex, 6, Options{Seed: 3, Warmup: 100, Measure: 400})
	if err != nil {
		t.Fatal(err)
	}
	if row.Ir <= 20 || row.Ir > 100 {
		t.Errorf("Ir = %.1f%% implausible", row.Ir)
	}
	if row.Lavg < 5 || row.Lavg > 30 {
		t.Errorf("Lavg = %.2f implausible", row.Lavg)
	}
}

// TestAblationVariants checks the hung and ecube variants run and that the
// adaptive scheme beats the hung scheme on complement, the paper's headline.
func TestAblationVariants(t *testing.T) {
	ex, err := FindTable("table6") // complement, n packets
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runCell(ex, 6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hung, err := runCell(ex, 6, Options{Seed: 3, Algorithm: "hung"})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Cycles >= hung.Cycles {
		t.Errorf("adaptive drained in %d cycles, hung in %d; expected a clear win", adaptive.Cycles, hung.Cycles)
	}
	if _, err := runCell(ex, 6, Options{Seed: 3, Algorithm: "ecube"}); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(ex, 6, Options{Seed: 3, Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus algorithm variant accepted")
	}
}

// TestRunAllRespectsMaxDims checks that a dimension bound of 10 keeps only
// table2's n=10 cell, and that cell against its closed form and the paper
// row attached to it.
func TestRunAllRespectsMaxDims(t *testing.T) {
	ex, err := FindTable("table2")
	if err != nil {
		t.Fatal(err)
	}
	var dims []int
	for _, d := range ex.Dims() {
		if d <= 10 {
			dims = append(dims, d)
		}
	}
	if len(dims) != 1 || dims[0] != 10 {
		t.Fatalf("table2 dimensions up to 10: %v, want [10]", dims)
	}
	row, err := runCell(ex, 10, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Exact closed form at the published size: complement, 1 packet.
	if row.Lavg != 21 || row.Lmax != 21 {
		t.Errorf("table2 n=10: got %.2f/%d, want the paper's exact 21/21", row.Lavg, row.Lmax)
	}
	if math.Abs(row.Lavg-row.Paper.Lavg) > 1e-9 {
		t.Errorf("paper row not attached correctly: %+v", row.Paper)
	}
}

func TestFormat(t *testing.T) {
	ex, _ := FindTable("table9")
	out := ex.Format([]Row{{Dims: 10, Nodes: 1024, Lavg: 12.3, Lmax: 31, Ir: 92, Paper: PaperRow{10, 12.10, 30, 93}}})
	for _, want := range []string{"table9", "12.30", "12.10", "Ir"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	ex2, _ := FindTable("table1")
	out2 := ex2.Format([]Row{{Dims: 10, Nodes: 1024, Lavg: 11.0, Lmax: 19, Paper: PaperRow{10, 10.96, 19, 0}}})
	if strings.Contains(out2, "Ir") {
		t.Errorf("static table format mentions Ir:\n%s", out2)
	}
}
