package chainmodel_test

import (
	"runtime"
	"testing"

	"targetedattacks/internal/chainmodel"
)

// allocBudgetCell is the C=∆=20 cell whose chain analysis the allocation
// budget holds (4851 states).
const allocBudgetCell = `{"c":20,"delta":20,"k":1,"mu":0.2,"d":0.9,"nu":0.1}`

// allocBudgets bounds, per solver backend, the bytes that one analysis of
// allocBudgetCell allocates: assembling the chain from the built
// instance, then AnalyzeChain. Each budget is the total measured when it
// was set, plus a 10% margin for Go runtime and map-layout differences;
// a change that allocates more must lower its cost or raise the budget
// in review.
var allocBudgets = map[string]uint64{
	"auto":     3_020_000, // 2,744,336 measured
	"bicgstab": 2_850_000, // 2,586,448 measured
}

func TestChainAnalysisAllocationBudget(t *testing.T) {
	fam, ok := chainmodel.Lookup("targeted-attack")
	if !ok {
		t.Fatal("targeted-attack family not registered")
	}
	for solver, budget := range allocBudgets {
		inst := buildPinInstance(t, fam, allocBudgetCell, solver)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ch, err := inst.Chain("delta")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chainmodel.AnalyzeChain(ch, inst.CleanClasses(), pinSojourns); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated (budget %d)", solver, got, budget)
		if got > budget {
			t.Errorf("%s: one C=∆=20 chain analysis allocated %d bytes, over its budget of %d", solver, got, budget)
		}
	}
}
