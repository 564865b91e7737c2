package reason

import (
	"testing"

	"gfd/internal/core"
	"gfd/internal/pattern"
)

// q7 builds Q7 of Fig. 3: a single node labeled tau.
func q7() *pattern.Pattern {
	p := pattern.New()
	p.AddNode("x", "tau")
	return p
}

// q8 builds Q8 of Fig. 3: x -l-> y, x -l-> z, y -l-> z, all tau.
func q8() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "tau")
	y := p.AddNode("y", "tau")
	z := p.AddNode("z", "tau")
	p.AddEdge(x, y, "l")
	p.AddEdge(x, z, "l")
	p.AddEdge(y, z, "l")
	return p
}

// q9 builds Q9 of Fig. 3: Q8 plus z -l-> w.
func q9() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "tau")
	y := p.AddNode("y", "tau")
	z := p.AddNode("z", "tau")
	w := p.AddNode("w", "tau")
	p.AddEdge(x, y, "l")
	p.AddEdge(x, z, "l")
	p.AddEdge(y, z, "l")
	p.AddEdge(z, w, "l")
	return p
}

// --- Satisfiability (Example 7, Theorem 1, Corollary 4) -----------------

func TestSatisfiabilityExample7SamePattern(t *testing.T) {
	// ϕ7 = (Q7, ∅ → x.A = c), ϕ7' = (Q7, ∅ → x.A = d): unsatisfiable.
	phi7 := core.MustNew("phi7", q7(), nil, []core.Literal{core.Const("x", "A", "c")})
	phi7p := core.MustNew("phi7p", q7(), nil, []core.Literal{core.Const("x", "A", "d")})
	ok, conflict := Satisfiable(core.MustNewSet(phi7, phi7p))
	if ok {
		t.Fatal("ϕ7 + ϕ7' must be unsatisfiable (Example 7)")
	}
	if conflict == nil || len(conflict.Rules) < 2 {
		t.Errorf("conflict diagnostics = %+v", conflict)
	}
	if conflict.Error() == "" {
		t.Error("conflict must describe itself")
	}
	// Each alone is satisfiable.
	if ok, _ := Satisfiable(core.MustNewSet(phi7)); !ok {
		t.Error("ϕ7 alone is satisfiable")
	}
}

func TestSatisfiabilityExample7CrossPattern(t *testing.T) {
	// ϕ8 = (Q8, ∅ → x.A = c), ϕ9 = (Q9, ∅ → x.A = d): Q8 embeds in Q9, so
	// the pair conflicts on Q9 although each alone has a model.
	phi8 := core.MustNew("phi8", q8(), nil, []core.Literal{core.Const("x", "A", "c")})
	phi9 := core.MustNew("phi9", q9(), nil, []core.Literal{core.Const("x", "A", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(phi8)); !ok {
		t.Error("ϕ8 alone is satisfiable")
	}
	if ok, _ := Satisfiable(core.MustNewSet(phi9)); !ok {
		t.Error("ϕ9 alone is satisfiable")
	}
	ok, conflict := Satisfiable(core.MustNewSet(phi8, phi9))
	if ok {
		t.Fatal("ϕ8 + ϕ9 must be unsatisfiable (Example 7)")
	}
	if conflict.HostRule != "phi9" {
		t.Errorf("conflict host = %s, want phi9", conflict.HostRule)
	}
}

func TestSatisfiabilityCorollary4VariableOnly(t *testing.T) {
	// A set of variable GFDs only is always satisfiable.
	f1 := core.MustNew("f1", q8(), []core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	f2 := core.MustNew("f2", q9(), []core.Literal{core.VarEq("x", "B", "y", "B")},
		[]core.Literal{core.VarEq("z", "C", "w", "C")})
	if ok, _ := Satisfiable(core.MustNewSet(f1, f2)); !ok {
		t.Error("variable GFDs are always satisfiable (Corollary 4)")
	}
}

func TestSatisfiabilityCorollary4NoEmptyAntecedent(t *testing.T) {
	// No rule of the form (Q, ∅ → Y): always satisfiable, even with
	// conflicting constants guarded behind antecedents.
	f1 := core.MustNew("f1", q7(), []core.Literal{core.Const("x", "B", "on")},
		[]core.Literal{core.Const("x", "A", "c")})
	f2 := core.MustNew("f2", q7(), []core.Literal{core.Const("x", "B", "on")},
		[]core.Literal{core.Const("x", "A", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(f1, f2)); !ok {
		t.Error("guarded conflicts are satisfiable: the model simply avoids B = on")
	}
}

func TestSatisfiabilityChainedDerivation(t *testing.T) {
	// ∅ → x.B = on; x.B = on → x.A = c; x.B = on → x.A = d: the chase must
	// chain through the enforced antecedent to find the conflict.
	f0 := core.MustNew("f0", q7(), nil, []core.Literal{core.Const("x", "B", "on")})
	f1 := core.MustNew("f1", q7(), []core.Literal{core.Const("x", "B", "on")},
		[]core.Literal{core.Const("x", "A", "c")})
	f2 := core.MustNew("f2", q7(), []core.Literal{core.Const("x", "B", "on")},
		[]core.Literal{core.Const("x", "A", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(f0, f1, f2)); ok {
		t.Error("chained enforcement must be detected")
	}
}

func TestSatisfiabilityTransitivityThroughVariables(t *testing.T) {
	// ∅ → x.A = c; ∅ → x.A = x.B; ∅ → x.B = d: conflict via transitivity.
	f0 := core.MustNew("f0", q7(), nil, []core.Literal{core.Const("x", "A", "c")})
	f1 := core.MustNew("f1", q7(), nil, []core.Literal{core.VarEq("x", "A", "x", "B")})
	f2 := core.MustNew("f2", q7(), nil, []core.Literal{core.Const("x", "B", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(f0, f1, f2)); ok {
		t.Error("transitive conflict must be detected")
	}
	// Without the bridging equality the set is fine.
	if ok, _ := Satisfiable(core.MustNewSet(f0, f2)); !ok {
		t.Error("different attributes may carry different constants")
	}
}

func TestSatisfiabilityDifferentLabelsNoInteraction(t *testing.T) {
	sigma := pattern.New()
	sigma.AddNode("x", "sigma")
	f1 := core.MustNew("f1", q7(), nil, []core.Literal{core.Const("x", "A", "c")})
	f2 := core.MustNew("f2", sigma, nil, []core.Literal{core.Const("x", "A", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(f1, f2)); !ok {
		t.Error("rules on disjoint labels cannot conflict")
	}
}

func TestSatisfiabilityWildcardRuleAppliesEverywhere(t *testing.T) {
	// Wildcard rule ∅ → x.A = c conflicts with a tau rule ∅ → x.A = d,
	// because the wildcard embeds into the tau pattern.
	wq := pattern.New()
	wq.AddNode("x", pattern.Wildcard)
	f1 := core.MustNew("wild", wq, nil, []core.Literal{core.Const("x", "A", "c")})
	f2 := core.MustNew("tau", q7(), nil, []core.Literal{core.Const("x", "A", "d")})
	if ok, _ := Satisfiable(core.MustNewSet(f1, f2)); ok {
		t.Error("wildcard rule must conflict with the tau rule on the tau host")
	}
}

func TestXSatisfiable(t *testing.T) {
	good := core.MustNew("g", q7(), []core.Literal{core.Const("x", "A", "c")}, nil)
	if !XSatisfiable(good) {
		t.Error("single binding is satisfiable")
	}
	bad := core.MustNew("b", q7(), []core.Literal{
		core.Const("x", "A", "c"), core.Const("x", "A", "d"),
	}, nil)
	if XSatisfiable(bad) {
		t.Error("x.A = c ∧ x.A = d is unsatisfiable")
	}
	badTrans := core.MustNew("bt", q7(), []core.Literal{
		core.Const("x", "A", "c"), core.VarEq("x", "A", "x", "B"), core.Const("x", "B", "d"),
	}, nil)
	if XSatisfiable(badTrans) {
		t.Error("transitive X conflict must be detected")
	}
}

// --- Implication (Example 8, Theorem 5) ----------------------------------

func TestImplicationExample8(t *testing.T) {
	// Σ = {(Q8, x.A = y.A → x.B = y.B), (Q9, x.B = y.B → z.C = w.C)};
	// ϕ11 = (Q9, x.A = y.A → z.C = w.C). Σ |= ϕ11.
	s1 := core.MustNew("s1", q8(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	s2 := core.MustNew("s2", q9(),
		[]core.Literal{core.VarEq("x", "B", "y", "B")},
		[]core.Literal{core.VarEq("z", "C", "w", "C")})
	phi11 := core.MustNew("phi11", q9(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("z", "C", "w", "C")})
	if !Implies(core.MustNewSet(s1, s2), phi11) {
		t.Fatal("Example 8: Σ |= ϕ11 must hold")
	}
	// Dropping the bridge rule s2 breaks the implication.
	if Implies(core.MustNewSet(s1), phi11) {
		t.Error("without s2 the implication must fail")
	}
	// The reverse direction does not hold either: s1's consequent is not
	// implied by s2 alone.
	if Implies(core.MustNewSet(s2), s1) {
		t.Error("s2 alone must not imply s1")
	}
}

func TestImplicationReflexive(t *testing.T) {
	f := core.MustNew("f", q8(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	if !Implies(core.MustNewSet(f), f) {
		t.Error("Σ |= ϕ for ϕ ∈ Σ")
	}
}

func TestImplicationTrivialCases(t *testing.T) {
	f := core.MustNew("f", q7(), []core.Literal{core.Const("x", "A", "c")}, nil)
	empty := core.MustNewSet()
	// Empty Y: trivially implied.
	if !Implies(empty, f) {
		t.Error("Y = ∅ holds trivially")
	}
	// Unsatisfiable X: vacuously implied.
	vac := core.MustNew("v", q7(),
		[]core.Literal{core.Const("x", "A", "c"), core.Const("x", "A", "d")},
		[]core.Literal{core.Const("x", "B", "q")})
	if !Implies(empty, vac) {
		t.Error("unsatisfiable X implies anything")
	}
	// X ⊇ Y: implied without any rules.
	sub := core.MustNew("s", q7(),
		[]core.Literal{core.Const("x", "A", "c")},
		[]core.Literal{core.Const("x", "A", "c")})
	if !Implies(empty, sub) {
		t.Error("Y ⊆ X must be implied by the empty set")
	}
	// A genuinely new consequent is not implied by the empty set.
	nf := core.MustNew("n", q7(),
		[]core.Literal{core.Const("x", "A", "c")},
		[]core.Literal{core.Const("x", "B", "d")})
	if Implies(empty, nf) {
		t.Error("the empty set implies nothing new")
	}
}

func TestImplicationConstantPropagation(t *testing.T) {
	// Σ: x.A = c → x.B = d. ϕ: x.A = c ∧ x.Z = q → x.B = d (weaker
	// antecedent is fine).
	s := core.MustNew("s", q7(),
		[]core.Literal{core.Const("x", "A", "c")},
		[]core.Literal{core.Const("x", "B", "d")})
	f := core.MustNew("f", q7(),
		[]core.Literal{core.Const("x", "A", "c"), core.Const("x", "Z", "q")},
		[]core.Literal{core.Const("x", "B", "d")})
	if !Implies(core.MustNewSet(s), f) {
		t.Error("strengthened antecedent preserves implication")
	}
	// But the wrong constant in X must not fire the rule.
	f2 := core.MustNew("f2", q7(),
		[]core.Literal{core.Const("x", "A", "other")},
		[]core.Literal{core.Const("x", "B", "d")})
	if Implies(core.MustNewSet(s), f2) {
		t.Error("rule must not fire on a different constant")
	}
}

func TestImplicationEmbeddedSmallerPattern(t *testing.T) {
	// Σ's rule on Q8 applies inside ϕ's larger pattern Q9.
	s := core.MustNew("s", q8(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	f := core.MustNew("f", q9(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	if !Implies(core.MustNewSet(s), f) {
		t.Error("rule on embedded pattern must transfer to the host")
	}
	// The opposite direction fails: a rule on Q9 does not constrain Q8
	// matches (Q9 does not embed into Q8).
	if Implies(core.MustNewSet(f), s) {
		t.Error("larger-pattern rule must not imply the smaller-pattern one")
	}
}

func TestImplicationTautologyConsequent(t *testing.T) {
	// ϕ: X → x.A = x.A (attribute existence). Implied only when some rule
	// forces x.A.
	force := core.MustNew("force", q7(), nil, []core.Literal{core.Const("x", "A", "c")})
	f := core.MustNew("f", q7(), nil, []core.Literal{core.VarEq("x", "A", "x", "A")})
	if !Implies(core.MustNewSet(force), f) {
		t.Error("a forced attribute implies its existence tautology")
	}
	unrelated := core.MustNew("u", q7(), nil, []core.Literal{core.Const("x", "B", "c")})
	if Implies(core.MustNewSet(unrelated), f) {
		t.Error("an unrelated attribute must not imply existence of x.A")
	}
}

// --- Reduce (workload reduction) ------------------------------------------

func TestReduceDropsImpliedRules(t *testing.T) {
	s1 := core.MustNew("s1", q8(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("x", "B", "y", "B")})
	s2 := core.MustNew("s2", q9(),
		[]core.Literal{core.VarEq("x", "B", "y", "B")},
		[]core.Literal{core.VarEq("z", "C", "w", "C")})
	implied := core.MustNew("implied", q9(),
		[]core.Literal{core.VarEq("x", "A", "y", "A")},
		[]core.Literal{core.VarEq("z", "C", "w", "C")})
	red := Reduce(core.MustNewSet(s1, s2, implied))
	if red.Len() != 2 {
		t.Fatalf("reduced to %d rules, want 2", red.Len())
	}
	if red.Get("implied") != nil {
		t.Error("the implied rule must be dropped")
	}
}

func TestReduceKeepsIndependentRules(t *testing.T) {
	f1 := core.MustNew("f1", q7(), []core.Literal{core.Const("x", "A", "1")},
		[]core.Literal{core.Const("x", "B", "2")})
	f2 := core.MustNew("f2", q7(), []core.Literal{core.Const("x", "C", "3")},
		[]core.Literal{core.Const("x", "D", "4")})
	red := Reduce(core.MustNewSet(f1, f2))
	if red.Len() != 2 {
		t.Errorf("independent rules must survive, got %d", red.Len())
	}
}

func TestReduceMutualDuplicatesKeepOne(t *testing.T) {
	// Two identical rules (different names): exactly one survives.
	mk := func(name string) *core.GFD {
		return core.MustNew(name, q7(),
			[]core.Literal{core.Const("x", "A", "1")},
			[]core.Literal{core.Const("x", "B", "2")})
	}
	red := Reduce(core.MustNewSet(mk("a"), mk("b")))
	if red.Len() != 1 {
		t.Errorf("duplicates must reduce to one, got %d", red.Len())
	}
}
