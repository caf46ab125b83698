package chainmodel_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/matrix"
)

// The solve-layer pins hold the exact bits of every Analysis field, and
// the solver's work counters, for a few cells under every solver backend,
// cold and warm-started from a neighbouring cell. Solver and markov
// refactors that promise identical outputs must keep them passing
// unchanged; regenerate deliberately with
//
//	go test ./internal/chainmodel -run TestSolveLayerPins -update-pins
//
// after a change that is supposed to move the numbers, and review the
// testdata diff like any other code change.
var updatePins = flag.Bool("update-pins", false, "regenerate testdata/solve_pins.json from the current solvers")

const pinsPath = "testdata/solve_pins.json"

// pinCell is one pinned cell: a family cell and distribution, plus the
// neighbouring cell whose recorded WarmStart seeds the warm run (the
// next step along the family's warm-start lane).
type pinCell struct {
	family, cell, neighbour, dist string
}

var pinCells = []pinCell{
	{"targeted-attack", `{"c":7,"delta":7,"k":1,"mu":0.2,"d":0.9,"nu":0.1}`, `{"c":7,"delta":7,"k":1,"mu":0.2,"d":0.85,"nu":0.1}`, "delta"},
	{"targeted-attack", `{"c":7,"delta":7,"k":2,"mu":0.3,"d":0.8,"nu":0.1}`, `{"c":7,"delta":7,"k":2,"mu":0.3,"d":0.75,"nu":0.1}`, "beta"},
	{"targeted-attack", `{"c":7,"delta":7,"k":7,"mu":0.1,"d":0.5,"nu":0.1}`, `{"c":7,"delta":7,"k":7,"mu":0.1,"d":0.55,"nu":0.1}`, "beta"},
	{"targeted-attack", `{"c":10,"delta":10,"k":1,"mu":0.25,"d":0.9,"nu":0.1}`, `{"c":10,"delta":10,"k":1,"mu":0.25,"d":0.85,"nu":0.1}`, "delta"},
	{"targeted-attack", `{"c":10,"delta":10,"k":3,"mu":0.3,"d":0.8,"nu":0.2}`, `{"c":10,"delta":10,"k":3,"mu":0.3,"d":0.75,"nu":0.2}`, "beta"},
	{"targeted-attack", `{"c":10,"delta":10,"k":10,"mu":0.1,"d":0.95,"nu":0.1}`, `{"c":10,"delta":10,"k":10,"mu":0.1,"d":0.9,"nu":0.1}`, "delta"},
	{"apt-compromise", `{"n":6,"theta":0.5,"phi":0.4,"rho":0.3,"detect":0.7}`, `{"n":6,"theta":0.5,"phi":0.4,"rho":0.2,"detect":0.7}`, "foothold"},
}

var pinSolvers = []string{"dense", "bicgstab", "gs", "ilu", "auto"}

// pinSojourns exercises the lockstep sojourn recursion past its
// prologue, with and without the prefetched B half-step.
const pinSojourns = 3

// solvePin is one (cell, solver, cold/warm) analysis. Bits maps a field
// name to the hexadecimal math.Float64bits of its value.
type solvePin struct {
	Name       string            `json:"name"`
	Backend    string            `json:"backend"`
	Iterations int64             `json:"iterations"`
	Fallbacks  int64             `json:"fallbacks"`
	Bits       map[string]string `json:"bits"`
}

// analysisBits renders every float field of a as exact bits.
func analysisBits(a *chainmodel.Analysis) map[string]string {
	bits := make(map[string]string)
	put := func(name string, v float64) { bits[name] = fmt.Sprintf("%016x", math.Float64bits(v)) }
	put("time_a", a.TimeInA)
	put("time_b", a.TimeInB)
	for i, v := range a.SojournsA {
		put(fmt.Sprintf("sojourn_a_%d", i+1), v)
	}
	for i, v := range a.SojournsB {
		put(fmt.Sprintf("sojourn_b_%d", i+1), v)
	}
	for name, v := range a.Absorption {
		put("absorption_"+name, v)
	}
	put("hit", a.HitProbability)
	return bits
}

// buildPinInstance parses and builds one cell of a family.
func buildPinInstance(t *testing.T, fam chainmodel.Family, raw, solver string) chainmodel.Instance {
	t.Helper()
	cell, err := fam.ParseCell(json.RawMessage(raw))
	if err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	shared, err := fam.NewShared([]chainmodel.Cell{cell})
	if err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	inst, err := fam.Build(shared, cell, matrix.SolverConfig{Kind: solver}, nil)
	if err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	return inst
}

// computePins runs every pinned cell under every backend, cold and warm.
func computePins(t *testing.T) []solvePin {
	t.Helper()
	var pins []solvePin
	for _, pc := range pinCells {
		fam, ok := chainmodel.Lookup(pc.family)
		if !ok {
			t.Fatalf("family %q not registered", pc.family)
		}
		for _, solver := range pinSolvers {
			_, ws, err := chainmodel.AnalyzeWarm(buildPinInstance(t, fam, pc.neighbour, solver), pc.dist, pinSojourns, nil)
			if err != nil {
				t.Fatalf("%s %s neighbour: %v", pc.neighbour, solver, err)
			}
			for _, mode := range []string{"cold", "warm"} {
				var seed *chainmodel.WarmStart
				if mode == "warm" {
					seed = ws
				}
				a, _, err := chainmodel.AnalyzeWarm(buildPinInstance(t, fam, pc.cell, solver), pc.dist, pinSojourns, seed)
				if err != nil {
					t.Fatalf("%s %s %s: %v", pc.cell, solver, mode, err)
				}
				pins = append(pins, solvePin{
					Name:       fmt.Sprintf("%s %s %s %s", pc.cell, pc.dist, solver, mode),
					Backend:    a.Solver.Backend,
					Iterations: a.Solver.Iterations,
					Fallbacks:  a.Solver.Fallbacks,
					Bits:       analysisBits(a),
				})
			}
		}
	}
	return pins
}

// TestSolveLayerPins recomputes every pinned analysis and requires the
// exact bits of testdata/solve_pins.json.
func TestSolveLayerPins(t *testing.T) {
	got := computePins(t)
	if *updatePins {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), pinsPath)
		return
	}
	blob, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatalf("reading pins (regenerate with -update-pins): %v", err)
	}
	var want []solvePin
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("computed %d pins, file holds %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("pin %d is %q, file holds %q", i, g.Name, w.Name)
		}
		if g.Backend != w.Backend || g.Iterations != w.Iterations || g.Fallbacks != w.Fallbacks {
			t.Errorf("%s: solver (%s, %d iterations, %d fallbacks), pinned (%s, %d, %d)",
				w.Name, g.Backend, g.Iterations, g.Fallbacks, w.Backend, w.Iterations, w.Fallbacks)
		}
		names := make([]string, 0, len(w.Bits))
		for name := range w.Bits {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if g.Bits[name] != w.Bits[name] {
				t.Errorf("%s: %s bits %s, pinned %s", w.Name, name, g.Bits[name], w.Bits[name])
			}
		}
		if len(g.Bits) != len(w.Bits) {
			t.Errorf("%s: %d fields, pinned %d", w.Name, len(g.Bits), len(w.Bits))
		}
	}
}
