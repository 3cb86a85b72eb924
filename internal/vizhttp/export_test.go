package vizhttp

import "repro/internal/core"

// coreDB unwraps the server's backend for tests that assert against
// the concrete store (cache counters, pool pin counts). Panics if the
// server is not backed by a single core store.
func (s *Server) coreDB() *core.SpatialDB { return s.db.(*core.SpatialDB) }
