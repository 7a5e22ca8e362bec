package mergetree

import (
	"fmt"
	"sort"
	"sync"

	"insitu/internal/grid"
)

// Hierarchical gluing parallelizes the in-transit stage: the paper
// notes that "although in-transit computations for a given analysis
// and timestep are serial, ... this can easily be made parallel as
// well", and the related work it builds on (Pascucci &
// Cole-McLaughlin) glues by k-nary merging of regions of the domain.
//
// Subtrees merge pairwise along the x, then y, then z axis of the
// block lattice; each merge glues the pair's graphs, reduces the
// result to the critical points plus the vertices still shared with
// blocks outside the merged region (the region's one-cell shell and
// ghost layer), and repacks it as a subtree over the union box.
// Independent merges at the same level run concurrently.

// regionSubtree pairs a subtree with the region it summarizes.
type regionSubtree struct {
	region grid.Box
	st     *Subtree
}

// GlueHierarchical merges the per-rank subtrees into the global merge
// tree using parallel pairwise region merges, with up to `workers`
// concurrent merges. Intermediate reductions drop interior regular
// vertices, so the result carries fewer augmented nodes than Glue's,
// but its critical structure (maxima, saddles, arcs) is identical.
// Subtree Block boxes must tile a box lattice (as produced by
// grid.Decomp); global is the full domain.
func GlueHierarchical(subtrees []*Subtree, global grid.Box, workers int) (*Tree, error) {
	if len(subtrees) == 0 {
		return nil, fmt.Errorf("mergetree: no subtrees to glue")
	}
	if workers < 1 {
		workers = 1
	}
	cur := make([]regionSubtree, len(subtrees))
	for i, st := range subtrees {
		cur[i] = regionSubtree{region: st.Block, st: st}
	}
	sem := make(chan struct{}, workers)

	for axis := 0; axis < 3 && len(cur) > 1; axis++ {
		for {
			pairs, rest := pairAlong(cur, axis)
			if len(pairs) == 0 {
				break
			}
			next := make([]regionSubtree, len(pairs))
			errs := make([]error, len(pairs))
			var wg sync.WaitGroup
			for i, p := range pairs {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int, a, b regionSubtree) {
					defer wg.Done()
					defer func() { <-sem }()
					merged, err := mergePair(a, b, global, len(rest) == 0 && len(pairs) == 1)
					next[i] = merged
					errs[i] = err
				}(i, p[0], p[1])
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			cur = append(rest, next...)
		}
	}
	if len(cur) != 1 {
		return nil, fmt.Errorf("mergetree: hierarchical glue did not converge: %d regions left (non-lattice blocks?)", len(cur))
	}
	// The final product may still be a reduced subtree (when the last
	// merge was not flagged final, e.g. a single input); glue it to a
	// tree.
	return GlueSerial([]*Subtree{cur[0].st})
}

// pairAlong finds disjoint pairs of regions adjacent along the axis
// whose union is a box; rest holds everything unpaired this round.
func pairAlong(cur []regionSubtree, axis int) (pairs [][2]regionSubtree, rest []regionSubtree) {
	order := append([]regionSubtree{}, cur...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].region, order[j].region
		// Sort by the off-axis coordinates first, then along the axis,
		// so mergeable neighbors become adjacent in the order.
		for d := 2; d >= 0; d-- {
			if d == axis {
				continue
			}
			if a.Lo[d] != b.Lo[d] {
				return a.Lo[d] < b.Lo[d]
			}
		}
		return a.Lo[axis] < b.Lo[axis]
	})
	used := make([]bool, len(order))
	for i := 0; i < len(order); i++ {
		if used[i] {
			continue
		}
		paired := false
		if i+1 < len(order) && !used[i+1] && unionIsBox(order[i].region, order[i+1].region, axis) {
			pairs = append(pairs, [2]regionSubtree{order[i], order[i+1]})
			used[i], used[i+1] = true, true
			paired = true
		}
		if !paired {
			rest = append(rest, order[i])
			used[i] = true
		}
	}
	return
}

// unionIsBox reports whether two boxes abut exactly along the axis
// with identical cross sections.
func unionIsBox(a, b grid.Box, axis int) bool {
	for d := 0; d < 3; d++ {
		if d == axis {
			continue
		}
		if a.Lo[d] != b.Lo[d] || a.Hi[d] != b.Hi[d] {
			return false
		}
	}
	return a.Hi[axis] == b.Lo[axis]
}

// mergePair glues two region subtrees and packs the glued arrays back
// into a subtree over the union, the way the in-situ stage packs a
// sweep. For the final merge the full tree is packed without reduction
// so no information is lost.
func mergePair(a, b regionSubtree, global grid.Box, final bool) (regionSubtree, error) {
	union := a.region.Union(b.region)
	tree, _, err := Glue([]*Subtree{a.st, b.st}, GlueOptions{})
	if err != nil {
		return regionSubtree{}, err
	}
	interior := union.Grow(-1)
	keep := func(id int64) bool {
		i, j, k := grid.GlobalPoint(global, id)
		return final || !interior.Contains(i, j, k)
	}
	var s Scratch
	st, err := s.packTree(tree, a.st.Rank, union, keep)
	if err != nil {
		return regionSubtree{}, err
	}
	return regionSubtree{region: union, st: st}, nil
}
