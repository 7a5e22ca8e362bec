package mergetree

import (
	"math"
	"sort"
)

// Branch describes one branch of the branch decomposition: a maximum,
// the saddle at which its contour merges into a contour with a higher
// maximum, and the resulting persistence. The globally highest maximum
// of each component is unpaired (infinite persistence, Saddle == nil).
type Branch struct {
	Max         *Node
	Saddle      *Node // nil for the root branch
	Persistence float64
}

// BranchDecomposition pairs every maximum with its death saddle.
// Branches are returned in decreasing persistence order.
func BranchDecomposition(t *Tree) []Branch {
	_, _, branches := decompose(t)
	return branches
}

// decompose is the one pass behind BranchDecomposition and Simplify:
// the nodes in descending sweep order, the highest maximum above each
// node (inclusive), and the branches in decreasing persistence order.
func decompose(t *Tree) (order []*Node, branchMax map[*Node]*Node, branches []Branch) {
	branchMax = make(map[*Node]*Node, len(t.Nodes))
	order = make([]*Node, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		order = append(order, n)
	}
	sortNodes(order) // descending sweep order: ups before downs
	for _, n := range order {
		if n.IsMax() {
			branchMax[n] = n
			continue
		}
		var best *Node
		for _, u := range n.Ups {
			um := branchMax[u]
			if best == nil || Above(um.Value, um.ID, best.Value, best.ID) {
				best = um
			}
		}
		branchMax[n] = best
	}

	for _, n := range order {
		if !n.IsSaddle() {
			continue
		}
		winner := branchMax[n]
		for _, u := range n.Ups {
			um := branchMax[u]
			if um == winner {
				continue
			}
			branches = append(branches, Branch{Max: um, Saddle: n, Persistence: um.Value - n.Value})
		}
		// If several ups carry the winner (possible only with
		// duplicate branchMax pointers), the first keeps it; the sweep
		// order tie-break makes branchMax pointers unique per max, so
		// each non-winning up dies exactly once.
	}
	// Root branches: unpaired maxima.
	paired := make(map[*Node]bool, len(branches))
	for _, br := range branches {
		paired[br.Max] = true
	}
	for _, n := range order {
		if n.IsMax() && !paired[n] {
			branches = append(branches, Branch{Max: n, Persistence: math.Inf(1)})
		}
	}
	sort.Slice(branches, func(i, j int) bool {
		if branches[i].Persistence != branches[j].Persistence {
			return branches[i].Persistence > branches[j].Persistence
		}
		return Above(branches[i].Max.Value, branches[i].Max.ID, branches[j].Max.Value, branches[j].Max.ID)
	})
	return order, branchMax, branches
}

// Persistence returns the persistence of every maximum, keyed by node
// id.
func Persistence(t *Tree) map[int64]float64 {
	out := make(map[int64]float64)
	for _, br := range BranchDecomposition(t) {
		out[br.Max.ID] = br.Persistence
	}
	return out
}

// Simplify removes every branch with persistence below eps, returning
// a new tree over the surviving nodes. Saddles that become regular are
// retained; apply Reduce to contract them. The input tree is not
// modified.
func Simplify(t *Tree, eps float64) *Tree {
	order, branchMax, branches := decompose(t)
	// A node survives iff the highest maximum above it does.
	dead := make(map[*Node]bool)
	for _, br := range branches {
		if !(br.Persistence >= eps) {
			dead[br.Max] = true
		}
	}

	out := &Tree{Nodes: make(map[int64]*Node)}
	for _, n := range order {
		if dead[branchMax[n]] {
			continue
		}
		out.Nodes[n.ID] = &Node{ID: n.ID, Value: n.Value}
	}
	for _, n := range order {
		m, alive := out.Nodes[n.ID]
		if !alive {
			continue
		}
		if n.Down != nil {
			// A live node's down is always live: its branch continues
			// through or merges below.
			dm := out.Nodes[n.Down.ID]
			m.Down = dm
			dm.Ups = append(dm.Ups, m)
		} else {
			out.Roots = append(out.Roots, m)
		}
	}
	sortNodes(out.Roots)
	return out
}
