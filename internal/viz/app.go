package viz

import (
	"fmt"
	"sync"
	"time"
)

// App is the visualization application: it owns the plugin graph,
// broadcasts input events, and composites producer outputs every
// frame. It corresponds to the main application of Figure 11.
type App struct {
	mu        sync.Mutex
	pipelines []*pipeline
	regs      map[Plugin]*Registry
	pending   map[Producer]bool
	current   map[Producer]*GeometrySet
	started   bool

	// Camera generations: camGen numbers the latest SetCamera;
	// signaled and shown hold, per producer, the generation of the
	// camera behind its latest signaled production and behind the
	// geometry the composite currently holds.
	camGen   uint64
	signaled map[Producer]uint64
	shown    map[Producer]uint64

	// FrameStats counters.
	frames        int
	nilHandoffs   int // GetOutput returned nil (producer busy)
	productionSig int // SignalProduction calls observed
}

// pipeline is one producer followed by its pipes.
type pipeline struct {
	producer Producer
	pipes    []Pipe
}

// NewApp returns an empty application.
func NewApp() *App {
	return &App{
		regs:     make(map[Plugin]*Registry),
		pending:  make(map[Producer]bool),
		current:  make(map[Producer]*GeometrySet),
		signaled: make(map[Producer]uint64),
		shown:    make(map[Producer]uint64),
	}
}

// AddPipeline attaches a producer and its pipe chain. This mirrors
// the configuration XML of the paper, which instantiates plugins and
// connects them into a graph.
func (a *App) AddPipeline(p Producer, pipes ...Pipe) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pipelines = append(a.pipelines, &pipeline{producer: p, pipes: pipes})
}

// Start initializes and starts every plugin. Each plugin receives
// its own Registry.
func (a *App) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return fmt.Errorf("viz: app already started")
	}
	a.started = true
	pls := a.pipelines
	a.mu.Unlock()

	for _, pl := range pls {
		plugins := append([]Plugin{pl.producer}, pipesAsPlugins(pl.pipes)...)
		for _, p := range plugins {
			reg := &Registry{}
			if _, isProd := p.(Producer); isProd {
				reg.setSignal(a.signalProduction)
			}
			a.mu.Lock()
			a.regs[p] = reg
			a.mu.Unlock()
			if !p.Initialize(reg) {
				return fmt.Errorf("viz: plugin %T failed to initialize", p)
			}
			if !p.Start() {
				return fmt.Errorf("viz: plugin %T failed to start", p)
			}
		}
	}
	return nil
}

func pipesAsPlugins(pipes []Pipe) []Plugin {
	out := make([]Plugin, len(pipes))
	for i, p := range pipes {
		out[i] = p
	}
	return out
}

// signalProduction marks a producer as having fresh output computed
// for camera c; the next Frame call will attempt GetOutput.
func (a *App) signalProduction(p Producer, c Camera) {
	a.mu.Lock()
	a.pending[p] = true
	a.signaled[p] = c.gen
	a.productionSig++
	a.mu.Unlock()
}

// SetCamera broadcasts a camera change to every plugin, stamped with
// the next camera generation.
func (a *App) SetCamera(c Camera) {
	a.mu.Lock()
	a.camGen++
	c.gen = a.camGen
	regs := make([]*Registry, 0, len(a.regs))
	for _, r := range a.regs {
		regs = append(regs, r)
	}
	a.mu.Unlock()
	for _, r := range regs {
		r.fireCamera(c)
	}
}

// Frame runs one frame cycle: for every producer that signaled
// production it attempts a non-blocking GetOutput, pushes new
// geometry through the pipes, and composites all current geometry.
// A nil GetOutput (producer busy swapping) leaves the pending flag
// set so the next frame retries — the exact handshake of Figure 13.
func (a *App) Frame() *GeometrySet {
	a.mu.Lock()
	a.frames++
	pls := a.pipelines
	a.mu.Unlock()

	for _, pl := range pls {
		// The flag is cleared before the handoff, so a production
		// signaled during it sets the flag again instead of being lost;
		// the output read is at least as new as generation gen.
		a.mu.Lock()
		pending, gen := a.pending[pl.producer], a.signaled[pl.producer]
		a.pending[pl.producer] = false
		a.mu.Unlock()
		if !pending {
			continue
		}
		out := pl.producer.GetOutput()
		if out == nil {
			a.mu.Lock()
			a.nilHandoffs++
			a.pending[pl.producer] = true
			a.mu.Unlock()
			continue // retry next frame
		}
		for _, pipe := range pl.pipes {
			out = pipe.Process(out)
		}
		a.mu.Lock()
		a.current[pl.producer] = out
		a.shown[pl.producer] = gen
		a.mu.Unlock()
	}

	composite := &GeometrySet{}
	a.mu.Lock()
	for _, pl := range pls {
		composite.Merge(a.current[pl.producer])
	}
	a.mu.Unlock()
	return composite
}

// WaitFrame runs frames until every producer's composited geometry
// was computed from the latest camera (SetCamera), then returns the
// settled composite. A production that finished before the call is
// counted like one that finishes during it. Drivers (examples, tests,
// benchmarks) use it to emulate the render loop without a real-time
// clock; it must be called after a SetCamera, or it times out.
func (a *App) WaitFrame(timeout time.Duration) (*GeometrySet, error) {
	deadline := time.Now().Add(timeout)
	for {
		g := a.Frame()
		a.mu.Lock()
		settled := true
		for _, pl := range a.pipelines {
			if a.shown[pl.producer] != a.camGen {
				settled = false
			}
		}
		a.mu.Unlock()
		if settled && g.Size() > 0 {
			return g, nil
		}
		if time.Now().After(deadline) {
			return g, fmt.Errorf("viz: no settled frame within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop stops and shuts down every plugin.
func (a *App) Stop() {
	a.mu.Lock()
	pls := a.pipelines
	a.mu.Unlock()
	for _, pl := range pls {
		pl.producer.Stop()
		pl.producer.Shutdown()
		for _, p := range pl.pipes {
			p.Stop()
			p.Shutdown()
		}
	}
}

// Stats reports frame-loop counters for the §5.1 threading
// experiment.
type AppStats struct {
	Frames      int
	NilHandoffs int
	Productions int
}

// Stats returns a snapshot of the frame-loop counters.
func (a *App) Stats() AppStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AppStats{Frames: a.frames, NilHandoffs: a.nilHandoffs, Productions: a.productionSig}
}
