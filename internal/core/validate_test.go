package core

import (
	"strings"
	"testing"

	"targetedattacks/internal/matrix"
)

// TestStochasticityFullDefaultGrid validates every transition matrix of
// the paper's default parameter grid: all protocols k = 1…C crossed with
// the printed attack axes (µ up to 30%, d up to 99%), plus the ν
// extremes. Every transient row must sum to 1 within 1e-12 and every
// absorbing row must be an exact self-loop.
func TestStochasticityFullDefaultGrid(t *testing.T) {
	base := DefaultParams()
	for k := 1; k <= base.C; k++ {
		for _, mu := range []float64{0, 0.1, 0.2, 0.3} {
			for _, d := range []float64{0, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99} {
				for _, nu := range []float64{0.02, 0.1, 0.9} {
					p := base
					p.K, p.Mu, p.D, p.Nu = k, mu, d, nu
					m, sp, err := BuildTransitionMatrix(p)
					if err != nil {
						t.Fatalf("%v: %v", p, err)
					}
					if err := ValidateStochasticity(m, sp, 0); err != nil {
						t.Errorf("%v: %v", p, err)
					}
				}
			}
		}
	}
}

// TestStochasticityLargeCluster extends the validator to an enlarged
// state space on the sparse path's home turf.
func TestStochasticityLargeCluster(t *testing.T) {
	p := Params{C: 16, Delta: 16, Mu: 0.25, D: 0.9, K: 1, Nu: 0.1}
	m, sp, err := BuildTransitionMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStochasticity(m, sp, 0); err != nil {
		t.Error(err)
	}
}

func TestValidateStochasticityRejects(t *testing.T) {
	sp, err := NewSpace(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// build emits a valid chain row by row; mutate may add entries to
	// row i before it is sealed.
	build := func(mutate func(i int, b *matrix.RowBuilder)) *matrix.CSR {
		b := matrix.NewRowBuilder(sp.Size())
		for i, st := range sp.States() {
			if sp.Classify(st).Transient() {
				_ = b.Add(0, 0.5)
				_ = b.Add(1, 0.5)
			} else {
				_ = b.Add(i, 1)
			}
			mutate(i, b)
			b.EndRow()
		}
		m, err := matrix.ConcatRows(sp.Size(), b)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// at adds v at (row, col) when the builder reaches row.
	at := func(row, col int, v float64) func(int, *matrix.RowBuilder) {
		return func(i int, b *matrix.RowBuilder) {
			if i == row {
				_ = b.Add(col, v)
			}
		}
	}
	transient := sp.IndicesOf(ClassSafe)[0]
	absorbing := sp.IndicesOf(ClassSafeMerge)[0]

	ok := build(func(int, *matrix.RowBuilder) {})
	if err := ValidateStochasticity(ok, sp, 0); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	for _, tt := range []struct {
		name   string
		m      *matrix.CSR
		errHas string
	}{
		{
			"leaky transient row",
			build(at(transient, 2, -1e-6)),
			"probability",
		},
		{
			"row sum off",
			build(at(transient, 2, 1e-9)),
			"sums to",
		},
		{
			"absorbing row not a self-loop",
			build(at(absorbing, absorbing+1, 1e-3)),
			"self-loop",
		},
	} {
		err := ValidateStochasticity(tt.m, sp, 0)
		if err == nil {
			t.Errorf("%s: want error", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.errHas) {
			t.Errorf("%s: err = %v, want mention of %q", tt.name, err, tt.errHas)
		}
	}
	if err := ValidateStochasticity(nil, sp, 0); err == nil {
		t.Error("nil matrix: want error")
	}
	empty := matrix.NewRowBuilder(2)
	empty.EndRow()
	empty.EndRow()
	wrong, err := matrix.ConcatRows(2, empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStochasticity(wrong, sp, 0); err == nil {
		t.Error("wrong shape: want error")
	}
}
