// Social-network moderation: the fake-account GFD ϕ6 and the blog/photo
// annotation GFD ϕ5 of Example 5, over a small social graph. Demonstrates
// constant literals, larger patterns, and using violations as a work queue
// for moderation.
package main

import (
	"context"
	"fmt"
	"sort"

	"gfd"
)

// fakeAccount is ϕ6 with k = 2: if a confirmed-fake account x' and an
// account x like the same two blogs, and both posted blogs carrying the
// same spam keyword c, then x is fake too.
func fakeAccount(keyword string) *gfd.GFD {
	q := gfd.NewPattern()
	x := q.AddNode("x", "account")
	xp := q.AddNode("xp", "account")
	y1 := q.AddNode("y1", "blog")
	y2 := q.AddNode("y2", "blog")
	z1 := q.AddNode("z1", "blog")
	z2 := q.AddNode("z2", "blog")
	q.AddEdge(x, y1, "like")
	q.AddEdge(x, y2, "like")
	q.AddEdge(xp, y1, "like")
	q.AddEdge(xp, y2, "like")
	q.AddEdge(xp, z1, "post")
	q.AddEdge(x, z2, "post")
	return gfd.MustGFD("fake_account", q,
		[]gfd.Literal{
			gfd.Const("xp", "is_fake", "true"),
			gfd.Const("z1", "keyword", keyword),
			gfd.Const("z2", "keyword", keyword),
		},
		[]gfd.Literal{gfd.Const("x", "is_fake", "true")})
}

// blogAnnotation is ϕ5: a status describing a blog's photo must match the
// photo's description.
func blogAnnotation() *gfd.GFD {
	q := gfd.NewPattern()
	z := q.AddNode("z", "blog")
	x := q.AddNode("x", "status")
	y := q.AddNode("y", "photo")
	q.AddEdge(z, x, "has_status")
	q.AddEdge(z, y, "has_photo")
	q.AddEdge(x, y, "has_attachment")
	return gfd.MustGFD("blog_annotation", q, nil,
		[]gfd.Literal{gfd.VarEq("x", "text", "y", "desc")})
}

func main() {
	g := buildSocialGraph()
	set := gfd.MustSet(fakeAccount("free prize"), blogAnnotation())

	sess, err := gfd.NewSession(g)
	if err != nil {
		panic(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		panic(err)
	}
	res, err := prep.Detect(context.Background(), gfd.Options{Engine: gfd.EngineReplicated, N: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("checked %d accounts/blogs: %d violations (%d work units)\n",
		g.NumNodes(), len(res.Violations), res.Units)

	// Build the moderation queue: accounts implicated by fake_account,
	// ranked by how many violating matches involve them.
	suspect := make(map[string]int)
	for _, v := range res.Violations {
		if v.Rule != "fake_account" {
			continue
		}
		// Pattern node 0 is x, the account to flag.
		val, _ := g.Attr(v.Match[0], "val")
		suspect[val]++
	}
	names := make([]string, 0, len(suspect))
	for n := range suspect {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return suspect[names[i]] > suspect[names[j]] })
	fmt.Println("moderation queue (fake-account suspects):")
	for _, n := range names {
		fmt.Printf("  %-10s evidence: %d matching spam patterns\n", n, suspect[n])
	}

	for _, v := range res.Violations {
		if v.Rule == "blog_annotation" {
			txt, _ := g.Attr(v.Match[1], "text")
			desc, _ := g.Attr(v.Match[2], "desc")
			fmt.Printf("mismatched annotation: status says %q, photo says %q\n", txt, desc)
		}
	}
}

// buildSocialGraph reproduces the shape of Fig. 1's G2: three confirmed
// fake accounts and one unlabeled account sharing likes and spam posts,
// plus a blog whose status contradicts its photo.
func buildSocialGraph() *gfd.Graph {
	g := gfd.NewGraph(0, 0)
	acct := func(name, fake string) gfd.NodeID {
		return g.AddNode("account", gfd.Attrs{"val": name, "is_fake": fake})
	}
	blog := func(name, keyword string) gfd.NodeID {
		a := gfd.Attrs{"val": name}
		if keyword != "" {
			a["keyword"] = keyword
		}
		return g.AddNode("blog", a)
	}
	a1 := acct("acct1", "true")
	a2 := acct("acct2", "true")
	a3 := acct("acct3", "true")
	a4 := acct("acct4", "false") // the paper's G2: acct4 should be caught

	p := make([]gfd.NodeID, 9)
	for i := 1; i <= 4; i++ {
		p[i] = blog(fmt.Sprintf("p%d", i), "")
	}
	p[5] = blog("p5", "free prize")
	p[6] = blog("p6", "free prize")
	p[7] = blog("p7", "free prize")
	p[8] = blog("p8", "free prize")

	// Likes: acct1/acct2 share p1,p2; acct3/acct4 share p3,p4.
	g.MustAddEdge(a1, p[1], "like")
	g.MustAddEdge(a1, p[2], "like")
	g.MustAddEdge(a2, p[1], "like")
	g.MustAddEdge(a2, p[2], "like")
	g.MustAddEdge(a3, p[3], "like")
	g.MustAddEdge(a3, p[4], "like")
	g.MustAddEdge(a4, p[3], "like")
	g.MustAddEdge(a4, p[4], "like")
	// Posts with the spam keyword.
	g.MustAddEdge(a1, p[5], "post")
	g.MustAddEdge(a2, p[6], "post")
	g.MustAddEdge(a3, p[7], "post")
	g.MustAddEdge(a4, p[8], "post")

	// Blog with inconsistent annotation (ϕ5).
	b := blog("travel", "")
	s := g.AddNode("status", gfd.Attrs{"val": "s1", "text": "beach day"})
	ph := g.AddNode("photo", gfd.Attrs{"val": "ph1", "desc": "mountain hike"})
	g.MustAddEdge(b, s, "has_status")
	g.MustAddEdge(b, ph, "has_photo")
	g.MustAddEdge(s, ph, "has_attachment")
	return g
}
