package server

// The decode-plan cache: the detect-side twin of deliver.go's patch
// plans, and an instance of cache.go's LRU. Compiling a receipt's query
// set (xpath parsing + two HMACs per record) costs more than executing
// it against a cached, indexed document, so repeat detections and
// traces of one owner's receipts should pay compilation once. Plans are
// keyed by (owner, receipt, kind) — receipt ids are content-derived, so
// the pair pins the exact record set — and each entry remembers the
// *ownerRuntime it was compiled under: runtimeFor rebuilds the runtime
// object whenever the registered owner changes, so pointer inequality
// is a complete staleness test and no explicit invalidation hook is
// needed. The kind discriminates detect plans (compiled under the
// owner's mark) from trace plans (compiled under the fingerprint
// system's zeroed payload geometry — a different mark length).

import (
	"wmxml/internal/core"
	"wmxml/internal/obs"
)

// decodePlanEntries bounds the decode-plan cache shared by /v1/detect
// and /v1/trace.
const decodePlanEntries = 512

type planKind string

const (
	planDetect planKind = "detect"
	planTrace  planKind = "trace"
)

type dplanKey struct {
	owner   string
	receipt string
	kind    planKind
}

type planEntry struct {
	rt   *ownerRuntime // runtime identity the plan was compiled under
	plan *core.DecodePlan
}

// planFor returns the compiled decode plan for one receipt, compiling
// its records under cfg on a miss or when the cached plan was compiled
// under another runtime. A compile error is returned and nothing is
// cached.
func (s *Server) planFor(key dplanKey, rt *ownerRuntime, cfg core.Config, records []core.QueryRecord, tr *obs.Trace) (*core.DecodePlan, error) {
	if en, ok := s.dplan.Get(key); ok && en.rt == rt {
		s.met.decodePlanHits.Inc()
		return en.plan, nil
	}
	s.met.decodePlanMiss.Inc()
	sp := tr.StartSpan("plan_compile")
	pl, err := core.CompileDecodePlan(cfg, records, nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.dplan.Put(key, planEntry{rt: rt, plan: pl}, 0)
	return pl, nil
}
