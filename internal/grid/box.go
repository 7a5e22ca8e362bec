// Package grid provides structured-grid primitives shared by the
// simulation proxy and the analysis algorithms: integer index boxes,
// regular domain decompositions, and scalar fields defined on boxes.
//
// Conventions: a Box is a half-open interval [Lo, Hi) in each of the
// three dimensions. Linearization is x-fastest (Fortran-like), matching
// the layout S3D uses for its solution vectors.
package grid

import "fmt"

// Box is an axis-aligned half-open index box [Lo, Hi) in 3-D.
// 2-D domains are represented with Lo[2]=0, Hi[2]=1.
type Box struct {
	Lo [3]int
	Hi [3]int
}

// NewBox returns the box [0,nx) x [0,ny) x [0,nz).
func NewBox(nx, ny, nz int) Box {
	return Box{Hi: [3]int{nx, ny, nz}}
}

// Dims returns the extent of the box in each dimension.
func (b Box) Dims() [3]int {
	return [3]int{b.Hi[0] - b.Lo[0], b.Hi[1] - b.Lo[1], b.Hi[2] - b.Lo[2]}
}

// Size returns the number of grid points contained in the box.
// Degenerate (inverted) boxes have size zero.
func (b Box) Size() int {
	if b.Empty() {
		return 0
	}
	return (b.Hi[0] - b.Lo[0]) * (b.Hi[1] - b.Lo[1]) * (b.Hi[2] - b.Lo[2])
}

// sizeAtMost returns Size when it is at most limit, and false when the
// box holds more points — including boxes whose extents or point count
// overflow int, where Size's unchecked product would wrap.
func (b Box) sizeAtMost(limit int) (int, bool) {
	if b.Empty() {
		return 0, true
	}
	n := uint64(1)
	for d := 0; d < 3; d++ {
		e := uint64(b.Hi[d]) - uint64(b.Lo[d]) // exact: Hi > Lo
		if n > uint64(limit)/e {
			return 0, false
		}
		n *= e
	}
	return int(n), true
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool {
	return b.Hi[0] <= b.Lo[0] || b.Hi[1] <= b.Lo[1] || b.Hi[2] <= b.Lo[2]
}

// Contains reports whether the point (i,j,k) lies inside the box.
func (b Box) Contains(i, j, k int) bool {
	return i >= b.Lo[0] && i < b.Hi[0] &&
		j >= b.Lo[1] && j < b.Hi[1] &&
		k >= b.Lo[2] && k < b.Hi[2]
}

// ContainsBox reports whether o is entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	for d := 0; d < 3; d++ {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two boxes. The result may be
// empty; use Empty to test.
func (b Box) Intersect(o Box) Box {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(b.Lo[d], o.Lo[d])
		r.Hi[d] = min(b.Hi[d], o.Hi[d])
		if r.Hi[d] < r.Lo[d] {
			r.Hi[d] = r.Lo[d]
		}
	}
	return r
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = min(b.Lo[d], o.Lo[d])
		r.Hi[d] = max(b.Hi[d], o.Hi[d])
	}
	return r
}

// Grow expands the box by g points in every direction (negative g
// shrinks it).
func (b Box) Grow(g int) Box {
	for d := 0; d < 3; d++ {
		b.Lo[d] -= g
		b.Hi[d] += g
	}
	return b
}

// Index returns the linear offset of global point (i,j,k) within the
// box, x-fastest. The point must be inside the box.
func (b Box) Index(i, j, k int) int {
	d := b.Dims()
	return (i - b.Lo[0]) + d[0]*((j-b.Lo[1])+d[1]*(k-b.Lo[2]))
}

// Strides returns the offset steps along x, y and z: Index(i, j+1, k)
// is Index(i, j, k) + Strides()[1], in every field over the box.
func (b Box) Strides() [3]int {
	d := b.Dims()
	return [3]int{1, d[0], d[0] * d[1]}
}

// Point returns the global coordinates of the linear offset idx.
func (b Box) Point(idx int) (i, j, k int) {
	d := b.Dims()
	i = b.Lo[0] + idx%d[0]
	idx /= d[0]
	j = b.Lo[1] + idx%d[1]
	k = b.Lo[2] + idx/d[1]
	return
}

// GlobalIndex returns a unique int64 id for point (i,j,k) within the
// global domain g. Analysis stages use these ids to identify shared
// boundary vertices across blocks.
func GlobalIndex(g Box, i, j, k int) int64 {
	d := g.Dims()
	return int64(i-g.Lo[0]) + int64(d[0])*(int64(j-g.Lo[1])+int64(d[1])*int64(k-g.Lo[2]))
}

// GlobalPoint inverts GlobalIndex.
func GlobalPoint(g Box, id int64) (i, j, k int) {
	d := g.Dims()
	i = g.Lo[0] + int(id%int64(d[0]))
	id /= int64(d[0])
	j = g.Lo[1] + int(id%int64(d[1]))
	k = g.Lo[2] + int(id/int64(d[1]))
	return
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)",
		b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}
