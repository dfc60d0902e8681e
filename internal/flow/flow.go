// Package flow implements Dinic's maximum-flow algorithm on integer-
// capacity directed graphs. The concentrator library uses it as an
// omniscient-routing oracle: modelling every chip of a multichip switch
// as a full crossbar and asking for the maximum number of vertex-
// disjoint input→output paths gives the best ANY controller could do in
// the same wiring topology, against which the combinational designs are
// compared (experiment X5).
package flow

import "fmt"

// Graph is a directed graph with integer edge capacities supporting
// maximum flow queries. Nodes are dense integers [0, n).
type Graph struct {
	n     int
	heads [][]int32 // adjacency: indices into edges
	edges []edge
}

type edge struct {
	to   int32
	cap  int32
	flow int32
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("flow: negative node count %d", n))
	}
	return &Graph{n: n, heads: make([][]int32, n)}
}

// AddEdge adds a directed edge u→v with the given capacity and returns
// its id. A reverse residual edge of capacity 0 is added internally.
func (g *Graph) AddEdge(u, v, capacity int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), cap: int32(capacity)})
	g.edges = append(g.edges, edge{to: int32(u), cap: 0})
	g.heads[u] = append(g.heads[u], int32(id))
	g.heads[v] = append(g.heads[v], int32(id+1))
	return id
}

// Flow returns the flow currently assigned to the edge with the given
// id (after a MaxFlow call).
func (g *Graph) Flow(id int) int { return int(g.edges[id].flow) }

// Reset zeroes all flow, allowing a fresh MaxFlow computation on the
// same graph.
func (g *Graph) Reset() {
	for i := range g.edges {
		g.edges[i].flow = 0
	}
}

// MaxFlow computes the maximum s→t flow using Dinic's algorithm.
func (g *Graph) MaxFlow(s, t int) int {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		panic(fmt.Sprintf("flow: terminal out of range"))
	}
	if s == t {
		return 0
	}
	total := 0
	level := make([]int32, g.n)
	iter := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	for {
		// BFS: build level graph.
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range g.heads[u] {
				e := &g.edges[id]
				if e.cap-e.flow > 0 && level[e.to] == -1 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		if level[t] == -1 {
			return total
		}
		// DFS: blocking flow.
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := g.dfs(s, t, int32(1<<30), level, iter)
			if pushed == 0 {
				break
			}
			total += int(pushed)
		}
	}
}

func (g *Graph) dfs(u, t int, limit int32, level, iter []int32) int32 {
	if u == t {
		return limit
	}
	for ; iter[u] < int32(len(g.heads[u])); iter[u]++ {
		id := g.heads[u][iter[u]]
		e := &g.edges[id]
		if e.cap-e.flow <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		avail := e.cap - e.flow
		if limit < avail {
			avail = limit
		}
		pushed := g.dfs(int(e.to), t, avail, level, iter)
		if pushed > 0 {
			g.edges[id].flow += pushed
			g.edges[id^1].flow -= pushed
			return pushed
		}
	}
	return 0
}

// MaxBipartiteMatching is a convenience: given left size l, right size
// r, and adjacency pairs, it returns the maximum matching size (via
// unit-capacity max flow).
func MaxBipartiteMatching(l, r int, pairs [][2]int) int {
	g := NewGraph(l + r + 2)
	s, t := l+r, l+r+1
	for i := 0; i < l; i++ {
		g.AddEdge(s, i, 1)
	}
	for j := 0; j < r; j++ {
		g.AddEdge(l+j, t, 1)
	}
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= l || p[1] < 0 || p[1] >= r {
			panic(fmt.Sprintf("flow: pair (%d,%d) out of range", p[0], p[1]))
		}
		g.AddEdge(p[0], l+p[1], 1)
	}
	return g.MaxFlow(s, t)
}
