package render

import (
	"fmt"
	"math"
)

// DefaultDir is the framework's default view direction, shared by the
// viz analyses and the orbit's first camera so a one-camera orbit
// reproduces the single-view render exactly.
var DefaultDir = [3]float64{0.45, 0.3, 1}

// CameraName returns the canonical name of orbit camera i ("cam00",
// "cam01", ...), the camera axis of the image store's Cinema-style
// (variable × timestep × camera) spec.
func CameraName(i int) string { return fmt.Sprintf("cam%02d", i) }

// OrbitDirs returns n deterministic view directions orbiting the
// domain: the default direction rotated about the world Y axis in
// equal azimuth increments, elevation fixed. OrbitDirs(1) is the
// default direction alone, so single-camera runs are unchanged.
func OrbitDirs(n int) [][3]float64 {
	if n < 1 {
		n = 1
	}
	out := make([][3]float64, n)
	for i := range out {
		az := 2 * math.Pi * float64(i) / float64(n)
		s, c := math.Sin(az), math.Cos(az)
		out[i] = [3]float64{
			DefaultDir[0]*c + DefaultDir[2]*s,
			DefaultDir[1],
			DefaultDir[2]*c - DefaultDir[0]*s,
		}
	}
	return out
}

// Frame is one named camera view of a step's render.
type Frame struct {
	Cam string
	Img *Image
}

// FrameSet is the render of one step from each of its cameras — what
// the viz analyses return. Frames are ordered by camera index.
type FrameSet struct {
	Frames []Frame
}
