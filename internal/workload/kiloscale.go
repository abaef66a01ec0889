package workload

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// kiloNodesPerReplica is the smallest topology the pingpong and chaos
// traffic patterns support (two Cell blades plus one Xeon front-end).
// A kiloscale run tiles the node budget with independent replicas of it.
const kiloNodesPerReplica = ChaosNodes

// KiloscaleConfig describes a thousand-node experiment: the node budget is
// tiled into independent 3-node cluster replicas, each running the chosen
// workload on its own kernel with its own derived seed. Replicas share no
// state, so they run concurrently on host goroutines: the run's wall-clock
// cost divides across host workers while every per-replica outcome stays
// bit-for-bit deterministic regardless of worker count.
type KiloscaleConfig struct {
	// Nodes is the total simulated-node budget (default 1000). It is
	// rounded up to a whole number of 3-node replicas.
	Nodes int
	// Workload selects the per-replica traffic: "pingpong" (default) or
	// "chaos".
	Workload string
	// Workers is the host worker count: 0 means one per host core
	// (runtime.NumCPU), 1 is the sequential reference arm. Negative
	// counts are rejected.
	Workers int
	// Seed is the base seed; replica i derives seed Seed + i*1000003.
	Seed int64
	// Reps is the per-replica round-trip count (default 50 pingpong,
	// 5 chaos — the kiloscale axis is replica count, not depth).
	Reps int
}

// KiloscaleResult is one kiloscale run's outcome.
type KiloscaleResult struct {
	Config KiloscaleConfig
	// Replicas is the number of independent cluster replicas run.
	Replicas int
	// SimNodes is the simulated-node count actually instantiated
	// (Replicas * 3, >= Config.Nodes).
	SimNodes int
	// Workers is the resolved host worker count.
	Workers int
	// Fingerprint is an FNV-64a digest over the ordered per-replica
	// outcome lines; equality across worker counts is the parallel
	// determinism contract.
	Fingerprint string
	// VirtualTime is the largest per-replica final virtual clock — the
	// fleet finishes when its slowest replica does.
	VirtualTime sim.Time
	// Events is the total kernel events dispatched across all replicas.
	Events uint64
}

func (c KiloscaleConfig) withDefaults() KiloscaleConfig {
	if c.Nodes == 0 {
		c.Nodes = 1000
	}
	if c.Workload == "" {
		c.Workload = "pingpong"
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Reps == 0 {
		if c.Workload == "chaos" {
			c.Reps = 5
		} else {
			c.Reps = 50
		}
	}
	return c
}

// replicaSeed spaces replica seeds far apart so neighbouring replicas do
// not share RNG prefixes.
func (c KiloscaleConfig) replicaSeed(i int) int64 {
	return c.Seed + int64(i)*1_000_003
}

// Kiloscale runs the configured fleet and reports the aggregate outcome.
// min(Workers, replicas) goroutines take replica indices from one shared
// counter. Every replica runs even if another fails; the error returned
// is the lowest-index replica's.
func Kiloscale(cfg KiloscaleConfig) (KiloscaleResult, error) {
	if cfg.Workers < 0 {
		return KiloscaleResult{}, fmt.Errorf("kiloscale: negative worker count %d (0 means one per host core)", cfg.Workers)
	}
	cfg = cfg.withDefaults()
	if cfg.Workload != "pingpong" && cfg.Workload != "chaos" {
		return KiloscaleResult{}, fmt.Errorf("kiloscale: unknown workload %q (want pingpong or chaos)", cfg.Workload)
	}
	replicas := (cfg.Nodes + kiloNodesPerReplica - 1) / kiloNodesPerReplica
	if replicas < 1 {
		replicas = 1
	}

	// Outcome slots are indexed by replica, and each replica writes only
	// its own, so the result is independent of host completion order.
	lines := make([]string, replicas)
	vts := make([]sim.Time, replicas)
	events := make([]uint64, replicas)
	errs := make([]error, replicas)
	run := func(i int) error {
		h := hostprof.New(0)
		seed := cfg.replicaSeed(i)
		spec := &cluster.Spec{CellNodes: 2, XeonNodes: 1, Seed: seed}
		switch cfg.Workload {
		case "chaos":
			res, err := Chaos(ChaosConfig{
				Seed:         seed,
				Reps:         cfg.Reps,
				LossProb:     0.05,
				MailboxDrops: 2,
				Spec:         spec,
				Sinks:        core.Sinks{HostProf: h},
			})
			if err != nil {
				return fmt.Errorf("replica %d: %w", i, err)
			}
			fp := fnv.New64a()
			fp.Write([]byte(res.Fingerprint()))
			lines[i] = fmt.Sprintf("rep=%d chaos fp=%016x vt=%d", i, fp.Sum64(), int64(res.VirtualTime))
			vts[i] = res.VirtualTime
		default:
			typ := 1 + i%5 // cycle the five Table I channel types across the fleet
			res, err := PingPong(PingPongConfig{
				Type:   typ,
				Bytes:  256,
				Method: MethodCellPilot,
				Reps:   cfg.Reps,
				Spec:   spec,
				Sinks:  core.Sinks{HostProf: h},
			})
			if err != nil {
				return fmt.Errorf("replica %d: %w", i, err)
			}
			lines[i] = fmt.Sprintf("rep=%d type=%d oneway=%d", i, typ, int64(res.OneWay))
			// The timed window is Reps round trips of 2*OneWay each.
			vts[i] = res.OneWay * sim.Time(2*cfg.Reps)
		}
		events[i] = h.Snapshot().Events
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(cfg.Workers, replicas); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < replicas; i = int(next.Add(1) - 1) {
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return KiloscaleResult{}, err
		}
	}

	out := KiloscaleResult{
		Config:   cfg,
		Replicas: replicas,
		SimNodes: replicas * kiloNodesPerReplica,
		Workers:  cfg.Workers,
	}
	fp := fnv.New64a()
	fp.Write([]byte(strings.Join(lines, "\n")))
	out.Fingerprint = fmt.Sprintf("%016x", fp.Sum64())
	for i := range vts {
		out.VirtualTime = max(out.VirtualTime, vts[i])
		out.Events += events[i]
	}
	return out, nil
}
