package tokentm

import (
	"bytes"
	"strings"
	"testing"

	"tokentm/internal/workload"
)

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 5 {
		t.Fatalf("want 5 variants, got %d", len(vs))
	}
	for _, v := range vs {
		sys := New(Config{Variant: v, Cores: 2})
		if sys.HTM.Name() != string(v) {
			t.Errorf("variant %q reports name %q", v, sys.HTM.Name())
		}
	}
}

func TestDefaultVariant(t *testing.T) {
	sys := New(Config{Cores: 1})
	if sys.HTM.Name() != "TokenTM" {
		t.Fatalf("default variant: %s", sys.HTM.Name())
	}
	if sys.TokenTM() == nil {
		t.Fatal("TokenTM accessor")
	}
	perf := New(Config{Variant: VariantLogTMSEPerf, Cores: 1})
	if perf.TokenTM() != nil {
		t.Fatal("TokenTM accessor should be nil for LogTM-SE")
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Variant: "bogus"})
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := New(Config{Cores: 2, Seed: 3})
	sys.StoreWord(0x1000, 40)
	sys.Spawn(func(tc *Ctx) {
		tc.Atomic(func(tx *Tx) {
			tx.Store(0x1000, tx.Load(0x1000)+2)
		})
	})
	cycles := sys.Run()
	if cycles == 0 {
		t.Fatal("no time passed")
	}
	if got := sys.Load(0x1000); got != 42 {
		t.Fatalf("value: %d", got)
	}
	if err := sys.TokenTM().CheckBookkeeping(); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadAllVariants(t *testing.T) {
	spec, _ := workload.ByName("Cholesky")
	for _, v := range Variants() {
		d := RunWorkload(spec, v, 0.002, 1)
		if d.Cycles == 0 || len(d.Commits) == 0 {
			t.Fatalf("%s: empty run", v)
		}
		if d.Workload != "Cholesky" || d.Variant != v {
			t.Fatalf("%s: labels %+v", v, d)
		}
	}
}

func TestTable5Harness(t *testing.T) {
	rows := Table5(0.002, 1)
	if len(rows) != 8 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.NumXacts == 0 || r.AvgRead <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteTable5(&buf, rows)
	out := buf.String()
	for _, name := range []string{"Barnes", "Delaunay", "Vacation-High"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 5 output missing %s:\n%s", name, out)
		}
	}
}

func TestTable6Harness(t *testing.T) {
	rows := Table6(0.002, 1)
	if len(rows) != 8 {
		t.Fatalf("rows: %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable6(&buf, rows)
	if !strings.Contains(buf.String(), "% Fast Xacts") {
		t.Fatal("Table 6 header missing")
	}
	// Small SPLASH transactions should be overwhelmingly fast-release.
	for _, r := range rows {
		if r.Benchmark == "Cholesky" && r.FastPct < 90 {
			t.Fatalf("Cholesky fast release: %.1f%%", r.FastPct)
		}
	}
}

func TestFigure1Harness(t *testing.T) {
	rows, err := Figure1With(NewRunner(SweepOptions{}), 0.002, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Figure 1 covers the 4 STAMP workloads, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup[VariantLogTMSEPerf] != 1.0 {
			t.Fatalf("%s: Perf must normalize to 1.0", r.Workload)
		}
		if r.Speedup[VariantLogTMSE2xH3] <= 0 {
			t.Fatalf("%s: missing 2xH3 speedup", r.Workload)
		}
	}
	var buf bytes.Buffer
	WriteSpeedups(&buf, rows, []Variant{VariantLogTMSEPerf, VariantLogTMSE2xH3, VariantLogTMSE4xH3})
	if !strings.Contains(buf.String(), "Delaunay") {
		t.Fatal("Figure 1 output missing Delaunay")
	}
}

func TestTable1Harness(t *testing.T) {
	rows := Table1(1)
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	for _, name := range []string{"AOLServer", "Apache", "BerkeleyDB", "BIND"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("Table 1 missing %s", name)
		}
	}
}

// TestProtocolTableWriters pins the regenerated Tables 2/3/4 to the paper's
// content.
func TestProtocolTableWriters(t *testing.T) {
	var buf bytes.Buffer
	WriteTable2(&buf)
	out := buf.String()
	for _, want := range []string{"Transaction Load", "(1,X1)", "(T,X1)", "Conflicting Store"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	WriteTable3(&buf)
	out = buf.String()
	for _, want := range []string{"Fission", "Fusion", "error", "(u=5,-)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	WriteTable4(&buf)
	out = buf.String()
	for _, want := range []string{"In-Memory", "In-Cache", "R+", "Attr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

// TestFigure5SmokeTest runs the full five-variant sweep on a tiny scale and
// checks the qualitative shape: TokenTM close to Perf, 2xH3 the worst on
// Delaunay.
func TestFigure5SmokeTest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Figure5With(NewRunner(SweepOptions{}), 0.01, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Workload != "Delaunay" {
			continue
		}
		tok := r.Speedup[VariantTokenTM]
		h2 := r.Speedup[VariantLogTMSE2xH3]
		if tok < 0.5 {
			t.Errorf("TokenTM on Delaunay should be near Perf: %.3f", tok)
		}
		if h2 > 0.8*tok {
			t.Errorf("2xH3 should trail TokenTM clearly on Delaunay: tok=%.3f 2xH3=%.3f", tok, h2)
		}
	}
}
