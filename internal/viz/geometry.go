// Package viz reproduces the paper's adaptive visualization
// architecture (§5, Figures 11–13): an event-driven plugin pipeline
// where Producer plugins react to camera movement by fetching data
// from the database indexes and emitting 3-D geometry, Pipe plugins
// transform geometry, and the application composites the outputs
// every frame.
//
// The reproduction keeps every architectural property the paper
// calls out: producers run in their own goroutine so the main loop
// never blocks (§5.1's threading discussion), GetOutput hands over
// the last completed geometry through a non-blocking try-lock and
// returns nil while the producer is replacing it, SignalProduction
// just sets a flag the application checks next frame, and producers
// keep a local geometry cache so zooming out replays earlier results
// with zero database traffic. The rendering device is an ASCII
// rasterizer instead of Managed DirectX; nothing in the paper's
// claims depends on the pixel backend.
package viz

import (
	"fmt"

	"repro/internal/vec"
)

// P3 is a 3-D vertex.
type P3 [3]float64

// Point is a renderable point with a class/color tag.
type Point struct {
	Pos P3
	// Tag colors the point (e.g. the spectral class ordinal).
	Tag uint8
}

// Line is a renderable segment.
type Line struct {
	A, B P3
}

// Box3 is a renderable axis-aligned box.
type Box3 struct {
	Min, Max P3
}

// GeometrySet is the unit of data flowing through the pipeline.
type GeometrySet struct {
	Points []Point
	Lines  []Line
	Boxes  []Box3
	// Level records which LOD layer produced the set (diagnostics).
	Level int
}

// Merge appends o's geometry into g.
func (g *GeometrySet) Merge(o *GeometrySet) {
	if o == nil {
		return
	}
	g.Points = append(g.Points, o.Points...)
	g.Lines = append(g.Lines, o.Lines...)
	g.Boxes = append(g.Boxes, o.Boxes...)
	if o.Level > g.Level {
		g.Level = o.Level
	}
}

// Size returns the number of primitives.
func (g *GeometrySet) Size() int {
	return len(g.Points) + len(g.Lines) + len(g.Boxes)
}

// Camera is the paper's query shape: an axis-aligned view box in the
// 3-D visualization space plus the number of points the client wants
// in view.
type Camera struct {
	View vec.Box
	N    int
	// gen is the App.SetCamera broadcast that carried this camera;
	// productions report it back so a frame knows which camera its
	// geometry answers.
	gen uint64
}

// NewCamera builds a camera over a 3-D view box.
func NewCamera(view vec.Box, n int) Camera {
	if view.Dim() != 3 {
		panic(fmt.Sprintf("viz: camera needs a 3-D view box, got %d-D", view.Dim()))
	}
	return Camera{View: view.Clone(), N: n}
}

// Zoom returns a camera whose view box is scaled by factor around
// its center (factor < 1 zooms in).
func (c Camera) Zoom(factor float64) Camera {
	center := c.View.Center()
	min := make(vec.Point, 3)
	max := make(vec.Point, 3)
	for i := 0; i < 3; i++ {
		half := c.View.Side(i) / 2 * factor
		min[i], max[i] = center[i]-half, center[i]+half
	}
	return Camera{View: vec.NewBox(min, max), N: c.N}
}

// Pan returns a camera translated by delta.
func (c Camera) Pan(delta vec.Point) Camera {
	min := c.View.Min.Add(delta)
	max := c.View.Max.Add(delta)
	return Camera{View: vec.Box{Min: min, Max: max}, N: c.N}
}

// key quantizes the camera for cache lookups: equal keys mean "same
// request".
func (c Camera) key() string {
	return fmt.Sprintf("%.6g,%.6g,%.6g-%.6g,%.6g,%.6g-%d",
		c.View.Min[0], c.View.Min[1], c.View.Min[2],
		c.View.Max[0], c.View.Max[1], c.View.Max[2], c.N)
}
