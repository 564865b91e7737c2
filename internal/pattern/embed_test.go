package pattern

import "testing"

// buildQ8 and buildQ9 reproduce Fig. 3 of the paper: Q8 is a triangle
// τ -l-> τ (two children) with cross edge; Q9 extends Q8 with one more
// node w. Exact shapes: Q8 has x -l-> y, x -l-> z, y -l-> z; Q9 adds
// z -l-> w.
func buildQ8() *Pattern {
	p := New()
	x := p.AddNode("x", "tau")
	y := p.AddNode("y", "tau")
	z := p.AddNode("z", "tau")
	p.AddEdge(x, y, "l")
	p.AddEdge(x, z, "l")
	p.AddEdge(y, z, "l")
	return p
}

func buildQ9() *Pattern {
	p := buildQ8()
	w := p.AddNode("w", "tau")
	z, _ := p.VarIndex("z")
	p.AddEdge(z, w, "l")
	return p
}

func TestEmbeddingQ8IntoQ9(t *testing.T) {
	q8, q9 := buildQ8(), buildQ9()
	embs := Embeddings(q8, q9)
	if len(embs) == 0 {
		t.Fatal("Q8 must embed into Q9 (the paper's satisfiability example)")
	}
	// The identity mapping must be among them.
	foundIdentity := false
	for _, e := range embs {
		if e.Map[0] == 0 && e.Map[1] == 1 && e.Map[2] == 2 {
			foundIdentity = true
		}
	}
	if !foundIdentity {
		t.Error("identity embedding missing")
	}
	// Q9 must NOT embed into Q8 (too many edges).
	if len(Embeddings(q9, q8)) != 0 {
		t.Error("Q9 must not embed into the smaller Q8")
	}
}

func TestEmbeddingSelfIsomorphism(t *testing.T) {
	q8 := buildQ8()
	embs := Embeddings(q8, q8)
	// The triangle with directed edges x->y, x->z, y->z is rigid: only the
	// identity automorphism exists.
	if len(embs) != 1 {
		t.Fatalf("triangle automorphisms = %d, want 1", len(embs))
	}
}

func TestEmbeddingLabelMismatch(t *testing.T) {
	a := New()
	a.AddNode("x", "sigma")
	host := New()
	host.AddNode("h", "tau")
	if len(Embeddings(a, host)) != 0 {
		t.Error("sigma must not embed onto tau")
	}
}

func TestEmbeddingWildcardSub(t *testing.T) {
	// A wildcard sub node embeds onto any host label.
	sub := New()
	x := sub.AddNode("x", Wildcard)
	y := sub.AddNode("y", Wildcard)
	sub.AddEdge(x, y, "is_a")

	host := New()
	b := host.AddNode("b", "bird")
	p := host.AddNode("p", "penguin")
	host.AddEdge(p, b, "is_a")

	embs := Embeddings(sub, host)
	if len(embs) != 1 {
		t.Fatalf("wildcard embeddings = %d, want 1", len(embs))
	}
	if embs[0].Map[0] != 1 || embs[0].Map[1] != 0 {
		t.Errorf("mapping = %v, want [1 0]", embs[0].Map)
	}
	// The converse does not hold: a concrete sub label never embeds onto
	// a wildcard host label.
	if len(Embeddings(host, sub)) != 0 {
		t.Error("concrete labels must not embed onto wildcards")
	}
}

func TestEmbeddingWildcardEdge(t *testing.T) {
	sub := New()
	x := sub.AddNode("x", "a")
	y := sub.AddNode("y", "b")
	sub.AddEdge(x, y, Wildcard)

	host := New()
	hx := host.AddNode("hx", "a")
	hy := host.AddNode("hy", "b")
	host.AddEdge(hx, hy, "anything")

	if len(Embeddings(sub, host)) != 1 {
		t.Error("wildcard edge label must match any host edge label")
	}
	// But a concrete sub edge label must match exactly.
	sub2 := New()
	x2 := sub2.AddNode("x", "a")
	y2 := sub2.AddNode("y", "b")
	sub2.AddEdge(x2, y2, "specific")
	if len(Embeddings(sub2, host)) != 0 {
		t.Error("concrete sub edge must not match a different host edge label")
	}
}

func TestEmbeddingDirectionMatters(t *testing.T) {
	sub := New()
	x := sub.AddNode("x", "a")
	y := sub.AddNode("y", "a")
	sub.AddEdge(x, y, "e")

	host := New()
	hx := host.AddNode("hx", "a")
	hy := host.AddNode("hy", "a")
	host.AddEdge(hy, hx, "e") // reversed

	embs := Embeddings(sub, host)
	// Only the mapping x->hy, y->hx preserves direction.
	if len(embs) != 1 || embs[0].Map[0] != 1 {
		t.Errorf("embeddings = %v", embs)
	}
}

func TestEmbeddingSelfLoop(t *testing.T) {
	sub := New()
	x := sub.AddNode("x", "a")
	sub.AddEdge(x, x, "e")

	hostNoLoop := New()
	hostNoLoop.AddNode("h", "a")
	if len(Embeddings(sub, hostNoLoop)) != 0 {
		t.Error("self-loop requires a host self-loop")
	}

	hostLoop := New()
	h := hostLoop.AddNode("h", "a")
	hostLoop.AddEdge(h, h, "e")
	if len(Embeddings(sub, hostLoop)) != 1 {
		t.Error("self-loop should embed onto host self-loop")
	}
}

func TestEmbeddingDisconnectedSub(t *testing.T) {
	// Two isolated tau nodes embed into any host with >= 2 tau nodes.
	sub := New()
	sub.AddNode("x", "tau")
	sub.AddNode("y", "tau")

	host := buildQ8()
	embs := Embeddings(sub, host)
	// 3 hosts choose 2 ordered = 6 injective mappings.
	if len(embs) != 6 {
		t.Errorf("disconnected embeddings = %d, want 6", len(embs))
	}
}
