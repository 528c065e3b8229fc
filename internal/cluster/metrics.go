package cluster

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/serving"
	"repro/internal/stats"
)

// Observability for serve processes (the optional -metrics endpoint): one
// JSON snapshot per scrape at /metrics, built from the modules the node
// already keeps — the statistical module of Section 5 (internal/stats), the
// peer's protocol state, the watcher registry, the durable store's record
// high water and the member table — plus the Go runtime's expvar surface at
// /debug/vars.

// NodeMetrics is one serve process's observability snapshot. The message-loss
// surface — SendErrors from the peer's statistical module, the TCP outbox's
// overflow and write-error counters — is lifted to the top level: a lost
// delta used to be invisible (peer.send swallowed transport errors), and
// these are the numbers an operator watches to see the lost-delta window the
// acknowledgment handshake then closes.
type NodeMetrics struct {
	Node        string         `json:"node"`
	Addr        string         `json:"addr"`
	Epoch       uint64         `json:"epoch"`
	State       string         `json:"state"`
	PathsReady  bool           `json:"paths_ready"`
	Tuples      int            `json:"tuples"`
	Watchers    int            `json:"watchers"`
	WalSeq      uint64         `json:"wal_seq"`          // 0 without a durable store
	SendErrors  uint64         `json:"send_errors"`      // peer-level failed sends
	OutboxDrops uint64         `json:"outbox_drops"`     // frames dropped on outbox overflow
	OutboxErrs  uint64         `json:"outbox_errs"`      // frames lost to write/dial errors
	WireFrames  uint64         `json:"wire_frames"`      // frames shipped (batched protocol; 0 unbatched)
	FlushErrs   uint64         `json:"flush_errors"`     // batched frames the transport rejected on flush
	Coalesced   uint64         `json:"frames_coalesced"` // messages that shared a frame instead of paying their own
	PiggyAcks   uint64         `json:"acks_piggybacked"` // acks that rode in a batched frame
	PiggyBeats  uint64         `json:"beats_piggybacked"`
	Stats       stats.Snapshot `json:"stats"`
	Members     []Member       `json:"members"`
	// Consensus is the replicated control plane's state (nil when the member
	// runs without one): log frontiers, quorum size, elected driver and the
	// fail-over count — the numbers an operator watches during a
	// coordinator-kill to see the new driver take over.
	Consensus *ControlPlaneMetrics `json:"consensus,omitempty"`
	// Replication is the replica manager's view (nil without -replicas): the
	// under_replicated gauge, stream counters, this member's role and the
	// agreed placement of its own node — the numbers an operator watches
	// during a primary-kill to see the under-replication window close.
	Replication *ReplicationMetrics `json:"replication,omitempty"`
	// Serving is the fan-out hub's snapshot (nil while no watcher has ever
	// registered): active watchers, per-policy queue depth and lag, and the
	// extractions saved against the one-extraction-per-watcher model.
	Serving *serving.Metrics `json:"serving,omitempty"`
}

// ReplicationMetrics joins the replica manager's counters with the agreed
// placement view for this member's own node.
type ReplicationMetrics struct {
	replica.Metrics
	// Role is "primary" while this process serves its own node, "deposed"
	// once the agreed log has re-homed it elsewhere.
	Role string `json:"role"`
	// Placement lists the members mirroring this process's own node, under
	// the agreed view version pinning that placement epoch.
	Placement        []string `json:"placement"`
	PlacementVersion uint64   `json:"placement_version"`
	// FrontierLag sums, over every outbound replication stream, how many
	// tuples the mirror's durable frontier trails the primary's. Zero means
	// every established replica is caught up.
	FrontierLag uint64 `json:"frontier_lag"`
}

// CollectReplicationMetrics snapshots the replica manager against the agreed
// control plane (cp may be nil; the placement is then unknown).
func CollectReplicationMetrics(mgr *replica.Manager, cp *ControlPlane, self string) ReplicationMetrics {
	rm := ReplicationMetrics{Metrics: mgr.Metrics(), Role: "primary"}
	if cp != nil {
		if cp.Deposed() {
			rm.Role = "deposed"
		}
		rm.Placement, rm.PlacementVersion = cp.PlacementFor(self)
	}
	for _, e := range mgr.StatusReport().Entries {
		if e.Role == "primary" && e.Target > e.Applied {
			rm.FrontierLag += e.Target - e.Applied
		}
	}
	return rm
}

// CollectNodeMetrics snapshots a hosted node of a running network over a
// cluster transport. cp may be nil (no replicated control plane).
func CollectNodeMetrics(n *core.Network, tr *Transport, cp *ControlPlane, node string) NodeMetrics {
	m := NodeMetrics{Node: node, Addr: tr.Addr(), Members: tr.Members()}
	if cp != nil {
		cm := cp.Metrics()
		m.Consensus = &cm
	}
	if p := n.Peer(node); p != nil {
		m.Epoch = p.Epoch()
		m.State = p.State().String()
		m.PathsReady = p.PathsReady()
		m.Tuples = p.DB().TotalTuples()
		m.Watchers = p.WatcherCount()
		m.Stats = p.Counters().Snapshot()
		m.SendErrors = m.Stats.SendErrors
		if sm := p.Serving().Metrics(); sm.Watchers > 0 || sm.Extractions > 0 ||
			sm.Evaluations > 0 || sm.CanceledWatchers > 0 {
			m.Serving = &sm
		}
	}
	m.OutboxDrops, m.OutboxErrs = tr.TCP().OutboxStats()
	if bs, ok := tr.BatchStats(); ok {
		m.WireFrames = bs.Frames
		m.FlushErrs = bs.FlushErrors
		m.Coalesced = bs.Coalesced
		m.PiggyAcks = bs.PiggybackedAcks
		m.PiggyBeats = bs.PiggybackedBeats
	}
	if st := n.Store(node); st != nil {
		m.WalSeq = st.Seq()
	}
	return m
}

// expvar surface: one process-wide "p2pdb" variable rendering the latest
// collector's NodeMetrics. Publish exactly once — expvar panics on duplicate
// names and tests start several metrics endpoints per process — and route
// through an atomic so the newest endpoint wins.
var (
	expvarOnce    sync.Once
	expvarCollect atomic.Value // func() NodeMetrics
)

func publishExpvar(collect func() NodeMetrics) {
	expvarCollect.Store(collect)
	expvarOnce.Do(func() {
		expvar.Publish("p2pdb", expvar.Func(func() any {
			if f, ok := expvarCollect.Load().(func() NodeMetrics); ok {
				return f()
			}
			return nil
		}))
	})
}

// StartMetrics serves the observability endpoint on listenAddr ("host:0"
// picks an ephemeral port): GET /metrics returns the collected NodeMetrics
// as JSON, GET /debug/vars the process's expvar registry. It returns the
// bound address and a closer.
func StartMetrics(listenAddr string, collect func() NodeMetrics) (string, func() error, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return "", nil, err
	}
	publishExpvar(collect)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(collect())
	})
	srv := &http.Server{Handler: mux}
	//lint:allow goroshutdown Serve returns when the returned closer (srv.Close) shuts the listener
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
