package grid

import "fmt"

// Decomp is a regular Cartesian decomposition of a global box into
// Px x Py x Pz blocks, one per rank. Ranks are numbered x-fastest,
// matching the paper's core layouts (e.g. 16x28x10 = 4480 simulation
// cores each owning a 100x49x43 region).
type Decomp struct {
	Global Box
	P      [3]int // number of blocks per dimension
}

// NewDecomp validates and constructs a decomposition. Every dimension
// must split evenly or nearly evenly; blocks are balanced to within one
// grid plane.
func NewDecomp(global Box, px, py, pz int) (*Decomp, error) {
	if px < 1 || py < 1 || pz < 1 {
		return nil, fmt.Errorf("grid: invalid decomposition %dx%dx%d", px, py, pz)
	}
	d := global.Dims()
	if px > d[0] || py > d[1] || pz > d[2] {
		return nil, fmt.Errorf("grid: decomposition %dx%dx%d exceeds global dims %v", px, py, pz, d)
	}
	return &Decomp{Global: global, P: [3]int{px, py, pz}}, nil
}

// Ranks returns the total number of blocks.
func (dc *Decomp) Ranks() int { return dc.P[0] * dc.P[1] * dc.P[2] }

// Coords maps a rank to its block coordinates.
func (dc *Decomp) Coords(rank int) [3]int {
	return [3]int{rank % dc.P[0], (rank / dc.P[0]) % dc.P[1], rank / (dc.P[0] * dc.P[1])}
}

// Rank maps block coordinates to a rank, or -1 if out of range.
func (dc *Decomp) Rank(cx, cy, cz int) int {
	if cx < 0 || cx >= dc.P[0] || cy < 0 || cy >= dc.P[1] || cz < 0 || cz >= dc.P[2] {
		return -1
	}
	return cx + dc.P[0]*(cy+dc.P[1]*cz)
}

// Block returns the sub-box owned by rank. Remainder points are
// distributed to the leading blocks so sizes differ by at most one
// plane per dimension.
func (dc *Decomp) Block(rank int) Box {
	c := dc.Coords(rank)
	var b Box
	for d := 0; d < 3; d++ {
		n := dc.Global.Hi[d] - dc.Global.Lo[d]
		q, r := n/dc.P[d], n%dc.P[d]
		lo := c[d]*q + min(c[d], r)
		sz := q
		if c[d] < r {
			sz++
		}
		b.Lo[d] = dc.Global.Lo[d] + lo
		b.Hi[d] = b.Lo[d] + sz
	}
	return b
}

// FaceNeighbor returns the rank adjacent across the given axis
// (0,1,2) in direction dir (-1 or +1), or -1 at the domain boundary.
func (dc *Decomp) FaceNeighbor(rank, axis, dir int) int {
	c := dc.Coords(rank)
	c[axis] += dir
	return dc.Rank(c[0], c[1], c[2])
}
