package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	ta "targetedattacks"
)

var update = flag.Bool("update", false, "re-pin testdata/ from the current program (takes minutes)")

// pinnedSwarmSeeds is how many seeds, from 1, the swarm digests are
// pinned for; other seeds are checked for determinism only.
const pinnedSwarmSeeds = 32

func TestMain(m *testing.M) {
	// The harness re-executes its own binary for every repetition; under
	// go test that binary is the test binary.
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestUpdatePins rewrites the pinned outputs. Run it only when the
// program's outputs change on purpose:
//
//	go test -run TestUpdatePins -update -timeout 30m
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("pins are rewritten only with -update")
	}
	ctx := context.Background()
	for _, w := range workloads {
		switch r := w.runner.(type) {
		case gridBench:
			rs, err := ta.EvaluateSweep(ctx, r.plan, r.options(ta.NewPool(0)))
			if err != nil {
				t.Fatal(err)
			}
			pins := gridPins{RelTol: 1e-6}
			for _, c := range sweepValues(rs) {
				pins.Cells = append(pins.Cells, pinnedCell{c.States, c.Transient, c.SafeTime, c.PollutedTime})
			}
			writePins(t, r.pins, pins)
		case swarmBench:
			pins := swarmPins{Digests: make(map[string]string)}
			unpinned := r
			unpinned.pins = ""
			for seed := int64(1); seed <= pinnedSwarmSeeds; seed++ {
				res, err := unpinned.rep(ctx, &repCtx{seed: seed, ready: func() {}})
				if err != nil || res.Failed > 0 {
					t.Fatalf("seed %d: %v %v", seed, err, res.Errors)
				}
				pins.Digests[strconv.FormatInt(seed, 10)] = res.Digest
			}
			writePins(t, r.pins, pins)
		}
	}
}

func writePins(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/"+name, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
