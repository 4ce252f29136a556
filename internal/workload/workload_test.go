package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tokentm/internal/core"
	"tokentm/internal/sim"
)

func TestSpecsMatchTable5(t *testing.T) {
	specs := Specs()
	if len(specs) != 8 {
		t.Fatalf("want 8 workloads, got %d", len(specs))
	}
	// Spot-check the paper's numbers survived transcription.
	want := map[string]struct {
		n          int
		avgR, avgW float64
		maxR, maxW int
	}{
		"Barnes":        {2553, 6.1, 4.2, 42, 39},
		"Cholesky":      {60203, 2.4, 1.7, 6, 4},
		"Radiosity":     {21786, 1.8, 1.5, 25, 24},
		"Raytrace":      {47783, 5.1, 2.0, 594, 4},
		"Delaunay":      {16384, 51.4, 38.8, 507, 345},
		"Genome":        {100115, 14.5, 2.1, 768, 18},
		"Vacation-Low":  {16399, 70.7, 18.1, 162, 75},
		"Vacation-High": {16399, 99.1, 18.6, 331, 80},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected workload %q", s.Name)
		}
		if s.NumXacts != w.n || s.AvgRead != w.avgR || s.AvgWrite != w.avgW ||
			s.MaxRead != w.maxR || s.MaxWrite != w.maxW {
			t.Errorf("%s parameters drifted from Table 5: %+v", s.Name, s)
		}
	}
	if _, ok := ByName("Delaunay"); !ok {
		t.Error("ByName lookup failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName false positive")
	}
}

// TestSetSizerCalibration: sampled means should track the Table 5 targets
// within ~20% and never exceed the max.
func TestSetSizerCalibration(t *testing.T) {
	for _, s := range Specs() {
		rng := rand.New(rand.NewSource(1))
		sz := newSetSizer(s.AvgRead, s.MaxRead, s.TailP)
		const n = 200000
		sum := 0
		for i := 0; i < n; i++ {
			v, _ := sz.draw(rng)
			if v < 1 || v > s.MaxRead {
				t.Fatalf("%s: size %d outside [1,%d]", s.Name, v, s.MaxRead)
			}
			sum += v
		}
		mean := float64(sum) / n
		if math.Abs(mean-s.AvgRead)/s.AvgRead > 0.20 {
			t.Errorf("%s: sampled read mean %.2f vs target %.2f", s.Name, mean, s.AvgRead)
		}
	}
}

// TestBuildRunsAndMeasures runs a small scaled workload end to end on
// TokenTM and checks the measured footprints resemble the spec.
func TestBuildRunsAndMeasures(t *testing.T) {
	spec, _ := ByName("Cholesky")
	m := sim.New(sim.Config{Cores: 8})
	tok := core.New(m.Mem, m.Store)
	m.SetHTM(tok)
	spec.Build(m, 8, 0.01, 1)
	m.Run()
	if len(m.Commits) == 0 {
		t.Fatal("no commits")
	}
	var rsum, wsum float64
	for _, r := range m.Commits {
		rsum += float64(r.ReadBlocks)
		wsum += float64(r.WriteBlocks)
		if r.ReadBlocks > spec.MaxRead {
			t.Fatalf("read set %d exceeds Table 5 max %d", r.ReadBlocks, spec.MaxRead)
		}
	}
	n := float64(len(m.Commits))
	if math.Abs(rsum/n-spec.AvgRead) > 1.5 {
		t.Errorf("measured avg read set %.2f vs target %.2f", rsum/n, spec.AvgRead)
	}
	if math.Abs(wsum/n-spec.AvgWrite) > 1.5 {
		t.Errorf("measured avg write set %.2f vs target %.2f", wsum/n, spec.AvgWrite)
	}
	if err := tok.CheckBookkeeping(); err != nil {
		t.Fatal(err)
	}
}

// TestScaling: scale cuts the transaction count proportionally.
func TestScaling(t *testing.T) {
	spec, _ := ByName("Radiosity")
	m := sim.New(sim.Config{Cores: 4})
	m.SetHTM(core.New(m.Mem, m.Store))
	spec.Build(m, 4, 0.002, 1)
	m.Run()
	want := int(float64(spec.NumXacts)*0.002) / 4 * 4
	if len(m.Commits) != want {
		t.Fatalf("commits %d, want %d", len(m.Commits), want)
	}
}

func TestNamesMatchSpecs(t *testing.T) {
	names := Names()
	specs := Specs()
	if len(names) != len(specs) {
		t.Fatalf("%d names for %d specs", len(names), len(specs))
	}
	seen := make(map[string]bool, len(names))
	for i, s := range specs {
		if names[i] != s.Name {
			t.Fatalf("names[%d]=%q, spec %q", i, names[i], s.Name)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate workload name %q — ByName's index would drop one", s.Name)
		}
		seen[s.Name] = true
		// The lazily built index must serve the exact spec, not a stale or
		// partial copy.
		got, ok := ByName(names[i])
		if !ok {
			t.Fatalf("ByName misses %q", names[i])
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("ByName(%q) = %+v, Specs()[%d] = %+v", names[i], got, i, s)
		}
	}
}
