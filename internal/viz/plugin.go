package viz

import "sync"

// Plugin is the lifecycle interface of Figure 12. Initialize
// receives the Registry the plugin uses to subscribe to events and
// signal production; Start/Stop bracket the plugin's worker; a false
// return aborts application startup.
type Plugin interface {
	Initialize(reg *Registry) bool
	Start() bool
	Stop() bool
	Shutdown()
}

// Producer is an output-only plugin: the source of all geometry.
// GetOutput is called by the application on its own thread and must
// never block; producers return nil while their worker is replacing
// the completed geometry, and the application simply retries next
// frame (§5.1).
type Producer interface {
	Plugin
	GetOutput() *GeometrySet
	SuggestInitial() Camera
}

// Pipe is an input/output plugin transforming geometry — ParaView's
// filters. Process runs synchronously on the application thread.
type Pipe interface {
	Plugin
	Process(in *GeometrySet) *GeometrySet
}

// Registry is each plugin's connection point to the application: it
// exposes the camera event stream and the SignalProduction callback.
// Every plugin receives its own Registry instance (as in the paper,
// where the Registry is passed in the constructor).
type Registry struct {
	mu          sync.Mutex
	cameraSubs  []func(Camera)
	signal      func(Producer, Camera)
	lastCam     Camera
	haveLastCam bool
}

// OnCameraChanged subscribes to camera (view box) change events. If
// a camera was already broadcast, the subscriber is immediately
// called with the latest value so late-started plugins catch up.
func (r *Registry) OnCameraChanged(fn func(Camera)) {
	r.mu.Lock()
	r.cameraSubs = append(r.cameraSubs, fn)
	have, cam := r.haveLastCam, r.lastCam
	r.mu.Unlock()
	if have {
		fn(cam)
	}
}

// SignalProduction tells the application that the producer has new
// geometry ready, computed for camera c (as its camera-change
// subscriber received it). It is called from the plugin's worker
// goroutine and only sets a flag — the application extracts the
// geometry on its own thread in the next frame cycle (Figure 13).
func (r *Registry) SignalProduction(p Producer, c Camera) {
	r.mu.Lock()
	sig := r.signal
	r.mu.Unlock()
	if sig != nil {
		sig(p, c)
	}
}

// fireCamera broadcasts a camera change to this registry's
// subscribers.
func (r *Registry) fireCamera(c Camera) {
	r.mu.Lock()
	r.lastCam, r.haveLastCam = c, true
	subs := make([]func(Camera), len(r.cameraSubs))
	copy(subs, r.cameraSubs)
	r.mu.Unlock()
	for _, fn := range subs {
		fn(c)
	}
}

// setSignal wires the application's production-signal sink.
func (r *Registry) setSignal(fn func(Producer, Camera)) {
	r.mu.Lock()
	r.signal = fn
	r.mu.Unlock()
}
