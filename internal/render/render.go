package render

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"insitu/internal/grid"
	"insitu/internal/parallel"
)

// Renderer holds the shared view parameters of one rendering
// configuration. Rays are orthographic and sample positions are
// anchored globally (per pixel, not per block), so per-block partial
// renders composited in visibility order reproduce the serial render.
type Renderer struct {
	Width, Height int
	TF            *TransferFunc
	Dir           [3]float64 // view direction (into the screen)
	Up            [3]float64 // up hint
	Step          float64    // sampling distance along the ray
	Global        grid.Box   // full domain, defines the camera framing
}

// NewRenderer validates and normalizes the configuration.
func NewRenderer(w, h int, tf *TransferFunc, dir, up [3]float64, step float64, global grid.Box) (*Renderer, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("render: invalid image size %dx%d", w, h)
	}
	if tf == nil {
		return nil, fmt.Errorf("render: transfer function required")
	}
	if step <= 0 {
		return nil, fmt.Errorf("render: step must be positive")
	}
	if norm(dir) == 0 {
		return nil, fmt.Errorf("render: view direction must be nonzero")
	}
	if global.Empty() {
		return nil, fmt.Errorf("render: empty global box")
	}
	r := &Renderer{Width: w, Height: h, TF: tf, Dir: normalize(dir), Up: up, Step: step, Global: global}
	if norm(cross(r.Dir, r.Up)) < 1e-9 {
		// Up parallel to dir: pick any perpendicular.
		r.Up = [3]float64{0, 1, 0}
		if norm(cross(r.Dir, r.Up)) < 1e-9 {
			r.Up = [3]float64{1, 0, 0}
		}
	}
	return r, nil
}

func norm(v [3]float64) float64 {
	return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
}

func normalize(v [3]float64) [3]float64 {
	n := norm(v)
	return [3]float64{v[0] / n, v[1] / n, v[2] / n}
}

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

func dot(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// camera returns the orthographic basis: image-plane axes, center and
// half-extent.
func (r *Renderer) camera() (right, up [3]float64, center [3]float64, radius float64) {
	right = normalize(cross(r.Dir, r.Up))
	up = cross(right, r.Dir)
	d := r.Global.Dims()
	center = [3]float64{
		float64(r.Global.Lo[0]) + float64(d[0]-1)/2,
		float64(r.Global.Lo[1]) + float64(d[1]-1)/2,
		float64(r.Global.Lo[2]) + float64(d[2]-1)/2,
	}
	radius = 0.5 * math.Sqrt(float64(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]))
	return
}

// contains reports whether continuous point p lies in the half-open
// box (used to partition samples among blocks without double
// counting).
func contains(b grid.Box, p [3]float64) bool {
	for d := 0; d < 3; d++ {
		if p[d] < float64(b.Lo[d]) || p[d] >= float64(b.Hi[d]) {
			return false
		}
	}
	return true
}

// sampler abstracts the scalar source a render draws from (a single
// field, or the in-transit block table).
type sampler interface {
	Sample(x, y, z float64) float64
}

// bandSampler is implemented by samplers whose Sample carries mutable
// per-ray state (the block table's last-hit cache): renderWith asks
// for one independent view per row band so bands never share state.
type bandSampler interface {
	bandSampler() sampler
}

// renderWith casts all rays, accumulating only samples whose position
// lies inside clip. Sample positions along a ray are t = k*Step from
// the globally anchored ray origin, identical regardless of clip, so
// partial block renders compose exactly. A slab test restricts each
// ray's march to the clip box's parametric interval; the exact
// half-open containment check still guards every sample, so clipping
// is purely an optimization.
//
// The image is split into one contiguous row band per GOMAXPROCS
// worker, cast concurrently. Rays are mutually independent and each
// band writes a disjoint pixel range, so the result is bitwise
// identical to the serial render at any width; compositing order is
// untouched because parallelism never crosses an image boundary.
func (r *Renderer) renderWith(src sampler, clip grid.Box) *Image {
	img := GetImage(r.Width, r.Height)
	right, up, center, radius := r.camera()
	tMax := 2 * radius
	procs := runtime.GOMAXPROCS(0)
	parallel.ForChunks(r.Height, (r.Height+procs-1)/procs, func(_, loRow, hiRow int) {
		band := src
		if bs, ok := src.(bandSampler); ok {
			band = bs.bandSampler()
		}
		r.renderRows(band, clip, img, right, up, center, radius, tMax, loRow, hiRow)
	})
	return img
}

// renderRows casts the rays of rows [loRow, hiRow).
func (r *Renderer) renderRows(src sampler, clip grid.Box, img *Image, right, up, center [3]float64, radius, tMax float64, loRow, hiRow int) {
	for py := loRow; py < hiRow; py++ {
		for px := 0; px < r.Width; px++ {
			sx := (float64(px)+0.5)/float64(r.Width) - 0.5
			sy := 0.5 - (float64(py)+0.5)/float64(r.Height)
			var origin [3]float64
			for d := 0; d < 3; d++ {
				origin[d] = center[d] + 2*radius*(sx*right[d]+sy*up[d]) - radius*r.Dir[d]
			}
			tEnter, tExit, hit := raySlab(origin, r.Dir, clip, 0, tMax)
			if !hit {
				continue
			}
			// First global sample position at or after entry.
			k0 := math.Ceil(tEnter / r.Step)
			if k0 < 0 {
				k0 = 0
			}
			var cr, cg, cb, ca float64
			for t := k0 * r.Step; t <= tExit && t <= tMax; t += r.Step {
				if ca >= 0.999 {
					break // early ray termination
				}
				p := [3]float64{
					origin[0] + t*r.Dir[0],
					origin[1] + t*r.Dir[1],
					origin[2] + t*r.Dir[2],
				}
				if !contains(clip, p) {
					continue
				}
				v := src.Sample(p[0], p[1], p[2])
				sr, sg, sb, sa := r.TF.Lookup(v)
				if sa <= 0 {
					continue
				}
				alpha := 1 - math.Pow(1-sa, r.Step)
				w := (1 - ca) * alpha
				cr += w * sr
				cg += w * sg
				cb += w * sb
				ca += w
			}
			img.Set(px, py, cr, cg, cb, ca)
		}
	}
}

// raySlab intersects the ray origin + t*dir with the box over
// [tLo, tHi], returning the clipped interval. The interval is widened
// by one step of slack at each end; exact membership is decided per
// sample by contains.
func raySlab(origin, dir [3]float64, b grid.Box, tLo, tHi float64) (float64, float64, bool) {
	for d := 0; d < 3; d++ {
		lo, hi := float64(b.Lo[d]), float64(b.Hi[d])
		if dir[d] == 0 {
			if origin[d] < lo || origin[d] >= hi {
				return 0, 0, false
			}
			continue
		}
		t0 := (lo - origin[d]) / dir[d]
		t1 := (hi - origin[d]) / dir[d]
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tLo {
			tLo = t0
		}
		if t1 < tHi {
			tHi = t1
		}
		if tLo > tHi {
			return 0, 0, false
		}
	}
	return tLo, tHi, true
}

// RenderBlock performs one rank's in-situ stage of the fully in-situ
// algorithm: ray-cast the rank's full-resolution block into a partial
// frame. The field must cover owned plus one ghost layer (clipped to
// the domain) so trilinear samples at block faces match the serial
// render, RenderBlock(f, f.Box) of the whole field.
func (r *Renderer) RenderBlock(f *grid.Field, owned grid.Box) *Image {
	return r.renderWith(f, owned)
}

// BlockOrder returns the rank visibility order (front-most first) for
// the decomposition under this renderer's view direction. For a
// regular grid of blocks and parallel rays, ordering each axis by the
// sign of the view direction yields a correct visibility order.
func (r *Renderer) BlockOrder(dc *grid.Decomp) []int {
	ranks := make([]int, dc.Ranks())
	for i := range ranks {
		ranks[i] = i
	}
	keys := make([]float64, dc.Ranks())
	for i := range ranks {
		b := dc.Block(i)
		c := [3]float64{
			(float64(b.Lo[0]) + float64(b.Hi[0])) / 2,
			(float64(b.Lo[1]) + float64(b.Hi[1])) / 2,
			(float64(b.Lo[2]) + float64(b.Hi[2])) / 2,
		}
		keys[i] = dot(c, r.Dir)
	}
	sort.SliceStable(ranks, func(a, b int) bool { return keys[ranks[a]] < keys[ranks[b]] })
	return ranks
}
