package adcc

import (
	"fmt"
	"sort"

	"adcc/internal/campaign"
	"adcc/internal/engine"
	"adcc/internal/kvlog"
	"adcc/internal/stencil"
)

// Scheme is one named consistency scheme: it knows its mechanism
// family, the simulated platform it runs on, and how to build its
// per-run Guard. Custom schemes implement the interface and are added
// to a Registry with RegisterScheme.
type Scheme = engine.Scheme

// SchemeKind classifies a scheme's mechanism family.
type SchemeKind = engine.Kind

// Mechanism families.
const (
	// KindNative runs with no fault-tolerance mechanism.
	KindNative = engine.KindNative
	// KindCheckpoint saves the protected regions at iteration
	// boundaries.
	KindCheckpoint = engine.KindCheckpoint
	// KindPMEM wraps iteration updates in undo-log transactions.
	KindPMEM = engine.KindPMEM
	// KindAlgo is the paper's algorithm-directed approach.
	KindAlgo = engine.KindAlgo
)

// FlushPolicy selects an algorithm-directed scheme's flush variant.
type FlushPolicy = engine.FlushPolicy

// Flush variants (paper §III-D).
const (
	// FlushNone flushes nothing (non-algo schemes).
	FlushNone = engine.FlushNone
	// FlushIndexOnly is the paper's rejected index-only design.
	FlushIndexOnly = engine.FlushIndexOnly
	// FlushSelective is the paper's selective-flushing extension.
	FlushSelective = engine.FlushSelective
	// FlushEveryIter flushes on every iteration (~16% overhead).
	FlushEveryIter = engine.FlushEveryIter
)

// Built-in scheme names; NewRegistry seeds all nine. The first seven
// are the paper's presentation order (§III-A), the last two the
// Monte-Carlo-specific variants (§III-D).
const (
	SchemeNative     = engine.SchemeNative
	SchemeCkptHDD    = engine.SchemeCkptHDD
	SchemeCkptNVM    = engine.SchemeCkptNVM
	SchemeCkptHetero = engine.SchemeCkptHetero
	SchemePMEM       = engine.SchemePMEM
	SchemeAlgoNVM    = engine.SchemeAlgoNVM
	SchemeAlgoHetero = engine.SchemeAlgoHetero
	SchemeAlgoNaive  = engine.SchemeAlgoNaive
	SchemeAlgoEvery  = engine.SchemeAlgoEvery
)

// Built-in workload names; NewRegistry seeds all five families in
// sweep order: the paper's three studies, then the stencil and KV-store
// extension families.
const (
	WorkloadCG      = "cg"
	WorkloadMM      = "mm"
	WorkloadMC      = "mc"
	WorkloadStencil = stencil.WorkloadName
	WorkloadKVLog   = kvlog.WorkloadName
)

// WorkloadSpec describes a workload family in three fields:
//
//	Name    string   // registry key, cell-key prefix, report label
//	Schemes []string // default sweep, in order; nil = seven cases
//	New     func(scale float64) func(sc Scheme) (Workload, error)
//
// New is called once per sweep with the problem scale (1.0 = paper
// shape): compute expensive pure inputs (generated matrices,
// verification oracles) there and share them read-only. The function it
// returns builds one fresh, unprepared Workload per run under a scheme
// — the runner binds it to a machine through Workload.Prepare — so it
// must be cheap and safe for concurrent use. Nil Schemes means the
// paper's seven-case comparison for Runner.Run, and the same minus the
// redundant algo-NVM/DRAM label for campaigns, which sweep both
// platforms anyway. A spec registered on a Registry is swept by
// Runner.Run and by campaigns exactly like the built-ins.
type WorkloadSpec = engine.Family

// Registry is an instance-scoped namespace of consistency schemes and
// workload families. Registries are independent: registering on one
// never affects another, so embedders compose custom schemes and
// workloads without init-order coupling or process-global state. All
// methods are safe for concurrent use.
type Registry struct {
	reg *engine.Registry
}

// NewRegistry returns a registry seeded with the paper's nine built-in
// schemes and the five built-in workload families.
func NewRegistry() *Registry {
	return &Registry{reg: campaign.NewRegistry()}
}

// RegisterScheme adds a custom scheme. Registering a nil or unnamed
// scheme, or a name already present, returns an error.
func (r *Registry) RegisterScheme(s Scheme) error {
	if err := r.reg.Register(s); err != nil {
		return fmt.Errorf("adcc: %w", err)
	}
	return nil
}

// Scheme finds a scheme by name.
func (r *Registry) Scheme(name string) (Scheme, bool) {
	return r.reg.Lookup(name)
}

// MustScheme finds a scheme by name, panicking on unknown names. Use
// for the built-in names, which NewRegistry seeds unconditionally.
func (r *Registry) MustScheme(name string) Scheme {
	return r.reg.MustLookup(name)
}

// SchemeNames returns every registered scheme name, sorted.
func (r *Registry) SchemeNames() []string { return r.reg.Names() }

// SevenCases returns the paper's seven-case comparison in presentation
// order (§III-A).
func (r *Registry) SevenCases() []Scheme { return r.reg.SevenCases() }

// RegisterWorkload adds a workload family. An empty name, a nil
// factory, or a name already present returns an error. Campaigns sweep
// registered families in registration order, after the built-ins.
func (r *Registry) RegisterWorkload(spec WorkloadSpec) error {
	if err := r.reg.RegisterFamily(spec); err != nil {
		return fmt.Errorf("adcc: %w", err)
	}
	return nil
}

// Workload finds a workload spec by name.
func (r *Registry) Workload(name string) (WorkloadSpec, bool) {
	return r.reg.Family(name)
}

// WorkloadNames returns every registered workload name, sorted.
func (r *Registry) WorkloadNames() []string {
	var out []string
	for _, f := range r.reg.Families() {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// engineRegistry exposes the scheme and family namespace to the
// campaign engine.
func (r *Registry) engineRegistry() *engine.Registry { return r.reg }
