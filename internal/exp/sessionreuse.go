package exp

import (
	"context"
	"fmt"
	"time"

	"gfd/internal/graph"
	"gfd/internal/validate"
)

// SessionReuse measures the prepared-session payoff the Session API
// exists for: warm Detect rounds on one Prepared (freeze, workload
// reduction, grouping and rule lowering all paid once) against the cold
// per-request path a stateless server would take — the legacy free
// function on a fresh copy of the graph each round, re-paying freeze and
// every lowering. Clones are built outside the timed region, so the cold
// rounds are charged exactly the per-request compilation cost, nothing
// else.
//
// The emitted table carries per-round wall times (prepare is amortized
// into the warm side: its one-time cost is a separate row), so the
// benchmark gate watches all three: a slowdown of the warm path defeats
// the API's purpose, and a slowdown of prepare or the cold path is an
// engine regression.
func SessionReuse(c Config, rounds int) Table {
	c = c.Defaults()
	if rounds <= 0 {
		rounds = 5
	}
	w := Prepare(c)
	opt := validate.Options{Engine: validate.EngineReplicated, N: 8, Seed: c.Seed}
	ctx := context.Background()

	// Warm path: one prepared session, `rounds` Detect rounds (a first
	// untimed round absorbs any lazily cached variant state).
	prep := w.Prepared()
	if _, err := prep.Detect(ctx, opt); err != nil {
		panic(err)
	}
	warmStart := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := prep.Detect(ctx, opt); err != nil {
			panic(err)
		}
	}
	warmMS := time.Since(warmStart).Seconds() * 1000 / float64(rounds)

	// One-time session boot cost on a fresh graph copy: open, prepare,
	// first Detect — what a server pays once at startup or per graph
	// update before warm rounds begin.
	boot := w.G.Clone()
	prepStart := time.Now()
	bootPrep, err := mustSession(boot).Prepare(w.Set)
	if err != nil {
		panic(err)
	}
	if _, err := bootPrep.Detect(ctx, opt); err != nil {
		panic(err)
	}
	prepareMS := time.Since(prepStart).Seconds() * 1000

	// Cold path: each round validates a fresh clone of the same graph
	// through a throwaway bundle, as a per-request server would, re-paying
	// freeze, reduction, grouping and lowering every time.
	clones := make([]*graph.Graph, rounds)
	for i := range clones {
		clones[i] = w.G.Clone()
	}
	coldStart := time.Now()
	for _, gc := range clones {
		if _, err := validate.RepValB(ctx, validate.NewBundle(gc, w.Set), opt, nil); err != nil {
			panic(err)
		}
	}
	coldMS := time.Since(coldStart).Seconds() * 1000 / float64(rounds)

	t := Table{
		Title:  fmt.Sprintf("Session reuse — warm Detect vs cold per-request repVal (%s, %d rounds)", c.Dataset, rounds),
		XLabel: "path",
		Series: []string{"ms_per_round"},
		Rows: []Row{
			{X: "cold", Cells: map[string]float64{"ms_per_round": coldMS}},
			{X: "warm", Cells: map[string]float64{"ms_per_round": warmMS}},
			{X: "prepare+first", Cells: map[string]float64{"ms_per_round": prepareMS}},
		},
	}
	return t
}
