// Package replica keeps each node's extensional relations alive on k other
// serve members. Placement is the pure rendezvous function over the
// consensus-agreed member table (cluster.RendezvousPlacement), so every
// member derives the same replica sets from the same agreed view without any
// placement protocol of its own. The data path is mirror-driven: a member
// that finds itself in a node's placement opens a durable mirror store and
// solicits the stream with a ReplicaSyncReq carrying its recovered frontier;
// the primary then ships WAL-seq-stamped suffixes (ReplicaAppend, batched by
// transport.Batcher alongside the answer traffic) and advances the stream on
// durable acknowledgments only — a mirror syncs its store before it acks, so
// an acked frontier is on stable storage at the mirror. Because a mirror
// applies only contiguous extensions of its frontier (overlaps are trimmed,
// gaps trigger anti-entropy), its relation sequence numbers equal the
// primary's — which is what lets the primary's shipped subscription marks
// remain valid against the mirror after a promotion re-homes the node.
//
// The control plane (internal/cluster) owns the decisions: it declares
// primaries permanently dead, runs the promotion election over the durable
// frontiers this package reports, and calls back into the winner, which
// promotes its mirror into a live peer (core.Network.Adopt).
package replica

import (
	"bytes"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Control is the slice of the agreed control plane the replica manager reads.
// *cluster.ControlPlane satisfies it.
type Control interface {
	// PlacementFor returns the members that should hold a node's replicas
	// under the current agreed view, plus the view version pinning the
	// placement epoch.
	PlacementFor(node string) ([]string, uint64)
	// HostOf returns the member currently hosting a node's primary.
	HostOf(node string) string
}

// Options tunes a Manager.
type Options struct {
	// Member is this process's member name (stream endpoints speak member
	// names; the replicated nodes ride inside the frames).
	Member string
	// Nodes is the node universe — the network definition's node names.
	// Mirrors are only ever created for these.
	Nodes []string
	// K is the replica count per node.
	K int
	// DataDir hosts the mirror stores, one per mirrored node at
	// DataDir/<node>.replica. Empty keeps mirrors purely in memory (tests;
	// a crash then loses the mirror, but the anti-entropy handshake rebuilds
	// it from the primary).
	DataDir string
	// WAL tunes the mirror stores (ignored without DataDir).
	WAL wal.Options
	// FlushEvery is the primary's ship cadence: deltas accumulated since the
	// last flush go out at least this often (default 20ms; inserts also kick
	// the flusher directly).
	FlushEvery time.Duration
	// ResendAfter rewinds a stream to its acked frontier after this long
	// without acknowledgment progress, so a frame lost to a link error or a
	// restarting mirror ships again (default 750ms).
	ResendAfter time.Duration
	// ReconcileEvery is the placement reconciliation cadence: how often this
	// member re-derives which nodes it should mirror (default 250ms).
	ReconcileEvery time.Duration
	// SyncReqEvery rate-limits anti-entropy requests per node: a mirror that
	// received nothing for this long re-solicits the stream from the current
	// primary (also what re-establishes streams after a primary restart;
	// default 1s).
	SyncReqEvery time.Duration
	// StateEvery is the protocol-state ship cadence: the primary's durable
	// state (epoch, subscription marks, part results) goes to each replica
	// at most this often, and only when it changed (default 500ms).
	StateEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 20 * time.Millisecond
	}
	if o.ResendAfter <= 0 {
		o.ResendAfter = 750 * time.Millisecond
	}
	if o.ReconcileEvery <= 0 {
		o.ReconcileEvery = 250 * time.Millisecond
	}
	if o.SyncReqEvery <= 0 {
		o.SyncReqEvery = time.Second
	}
	if o.StateEvery <= 0 {
		o.StateEvery = 500 * time.Millisecond
	}
	return o
}

// destStream is a primary's outbound replication stream to one mirror.
type destStream struct {
	sent      storage.Marks // frontier shipped (per relation)
	acked     storage.Marks // frontier durably acknowledged by the mirror
	progress  time.Time     // last ack advance (or stream establishment)
	lastState []byte        // last protocol-state blob shipped (dedup)
}

// primary is one node whose relations this member ships outward.
type primary struct {
	node     string
	db       *storage.DB
	stateFn  func() wal.State // live protocol state (nil: no state shipping)
	dests    map[string]*destStream
	lastShip time.Time // last state-ship attempt
	stateSeq uint64    // monotonic protocol-state ship counter
}

// mirror is one node whose relations this member replicates inward.
type mirror struct {
	node        string
	db          *storage.DB
	st          *wal.Store // nil for in-memory mirrors
	state       []byte     // latest shipped protocol-state blob
	stateEpoch  uint64
	lastAppend  time.Time // last append applied (lag detection)
	lastSyncReq time.Time // anti-entropy rate limit
	diverged    uint64    // appends whose post-apply seq missed the stamp
}

// Metrics snapshots a Manager for the serve metrics endpoint.
type Metrics struct {
	Primaries       int    `json:"primaries"`        // nodes shipped outward (own + adopted)
	Mirrors         int    `json:"mirrors"`          // nodes replicated inward
	UnderReplicated int    `json:"under_replicated"` // streams short of the primary frontier (plus missing ones)
	Appends         uint64 `json:"appends"`          // ReplicaAppend frames shipped
	Acks            uint64 `json:"acks"`             // durable acks received
	SyncReqs        uint64 `json:"sync_reqs"`        // anti-entropy requests sent
	Rewinds         uint64 `json:"rewinds"`          // streams rewound to the acked frontier
	Promotions      uint64 `json:"promotions"`       // mirrors promoted to primaries here
	Diverged        uint64 `json:"diverged"`         // appends that left a mirror off the seq stamp
}

// Manager runs both halves of the replication data path for one serve member.
type Manager struct {
	opts Options
	ctl  Control
	send func(from, to string, msg wire.Message) error

	mu        sync.Mutex
	primaries map[string]*primary
	mirrors   map[string]*mirror
	closed    bool

	appends    uint64
	acks       uint64
	syncReqs   uint64
	rewinds    uint64
	promotions uint64

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// New starts a replica manager. send carries frames to other members (wire
// it through the Batcher so appends and acks coalesce); the caller must
// route inbound replication frames to Handle (cluster.Transport.SetReplica).
func New(ctl Control, send func(from, to string, msg wire.Message) error, opts Options) *Manager {
	m := &Manager{
		opts:      opts.withDefaults(),
		ctl:       ctl,
		send:      send,
		primaries: map[string]*primary{},
		mirrors:   map[string]*mirror{},
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	m.wg.Add(2)
	go m.flushLoop()
	go m.reconcileLoop()
	return m
}

// Close stops the loops and cleanly closes every mirror store (their state
// records make the next open recover the applied frontier without replay
// distrust; a crash instead recovers from the log tail).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	mirrors := make([]*mirror, 0, len(m.mirrors))
	for _, mi := range m.mirrors {
		mirrors = append(mirrors, mi)
	}
	m.mu.Unlock()
	close(m.quit)
	m.wg.Wait()
	for _, mi := range mirrors {
		if mi.st != nil {
			_ = mi.st.Close()
		}
	}
}

// BecomePrimary registers a node this member hosts: db is its live database,
// stateFn its durable protocol state (peer.DurableState; nil ships no state).
// Called for the member's own node at boot and for every adopted node after
// a promotion. Idempotent — a repeated promotion of the same node just
// refreshes the callbacks.
func (m *Manager) BecomePrimary(node string, db *storage.DB, stateFn func() wal.State) {
	m.mu.Lock()
	if p := m.primaries[node]; p != nil {
		p.db, p.stateFn = db, stateFn
		m.mu.Unlock()
		return
	}
	m.primaries[node] = &primary{node: node, db: db, stateFn: stateFn, dests: map[string]*destStream{}}
	m.mu.Unlock()
	// Inserts kick the flusher so replication latency is one scheduling hop,
	// not a full FlushEvery tick.
	db.AddInsertListener(func(string, relalg.Tuple, uint64) { m.kickFlush() })
	m.kickFlush()
}

// Frontier reports this member's durable replication frontier for a node:
// the sum of its mirror's per-relation applied sequences — the promotion
// bid. Zero without a mirror. (A promoted or primary node reports its live
// database's frontier: the member already has everything.)
func (m *Manager) Frontier(node string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var db *storage.DB
	if p := m.primaries[node]; p != nil {
		db = p.db
	} else if mi := m.mirrors[node]; mi != nil {
		db = mi.db
	}
	if db == nil {
		return 0
	}
	return marksSum(dbMarks(db))
}

// Promote hands a node's mirror over for adoption: the mirror leaves the
// manager (the caller re-registers the node via BecomePrimary once the peer
// is live) and its database, attached store and last shipped protocol state
// become the adopted peer's substrate. A member elected without a mirror —
// possible when every replica holder died and the electorate fell back to
// fresh members — gets an empty database and a fresh store: the data is
// gone, but the node's name lives on and re-derivations repopulate it.
func (m *Manager) Promote(node string) (*storage.DB, *wal.Store, *wal.State, error) {
	m.mu.Lock()
	mi := m.mirrors[node]
	delete(m.mirrors, node)
	if mi == nil {
		var err error
		if mi, err = m.openMirrorLocked(node); err != nil {
			m.mu.Unlock()
			return nil, nil, nil, err
		}
		delete(m.mirrors, node)
	}
	m.promotions++
	blob := mi.state
	m.mu.Unlock()
	var restore *wal.State
	if st, err := wal.DecodeState(blob); err == nil {
		restore = &st
	}
	return mi.db, mi.st, restore, nil
}

// Handle consumes one inbound replication frame; it reports false for
// anything that is not one (the cluster dispatcher then routes it onward).
func (m *Manager) Handle(env wire.Envelope) bool {
	switch msg := env.Msg.(type) {
	case wire.ReplicaAppend:
		m.applyAppend(env.From, msg)
	case wire.ReplicaAck:
		m.applyAck(env.From, msg)
	case wire.ReplicaSyncReq:
		m.applySyncReq(env.From, msg)
	case wire.ReplicaState:
		m.applyState(msg)
	case wire.ReplicaStatusRequest:
		report := m.StatusReport()
		_ = m.send(m.opts.Member, env.From, report)
	default:
		return false
	}
	return true
}

// applyAppend ingests one shipped suffix at a mirror. Only contiguous
// extensions of the durable frontier apply: an overlap is trimmed (the
// primary rewound further back than needed), a gap triggers anti-entropy.
// The store syncs before the ack leaves, so an acked frontier is durable.
func (m *Manager) applyAppend(from string, msg wire.ReplicaAppend) {
	m.mu.Lock()
	mi := m.mirrors[msg.Node]
	if mi == nil {
		// Not (or no longer) our mirror — placement moved, or the frame
		// predates a promotion. Drop; the primary's stream to us ages out.
		m.mu.Unlock()
		return
	}
	mi.lastAppend = time.Now()
	if !mi.db.HasRelation(msg.Rel) {
		if err := mi.db.AddSchema(relalg.Schema{Name: msg.Rel, Attrs: msg.Attrs}); err != nil {
			m.mu.Unlock()
			return
		}
	}
	frontier := mi.db.MarksFor([]string{msg.Rel})[msg.Rel]
	switch {
	case msg.Base > frontier:
		// Gap: a frame before this one was lost or we restarted behind the
		// stream. Re-solicit from our durable frontier.
		m.syncReqLocked(mi)
		m.mu.Unlock()
		return
	case msg.To <= frontier:
		// Entirely old (a rewound primary re-shipping); re-ack so the
		// primary's stream advances past it.
	default:
		for _, t := range msg.Tuples[frontier-msg.Base:] {
			if _, err := mi.db.Insert(msg.Rel, t, storage.InsertExact); err != nil {
				m.mu.Unlock()
				return
			}
		}
		now := mi.db.MarksFor([]string{msg.Rel})[msg.Rel]
		if now != msg.To {
			// The mirror accepted a different tuple count than the primary
			// stamped — the replicas diverged (should be impossible while
			// both apply in insertion order). Count it and fall back to
			// anti-entropy rather than acking a frontier we do not hold.
			mi.diverged++
			m.syncReqLocked(mi)
			m.mu.Unlock()
			return
		}
		frontier = now
	}
	st := mi.st
	node, rel := msg.Node, msg.Rel
	m.mu.Unlock()
	if st != nil {
		if err := st.Sync(); err != nil {
			return // not durable: no ack, the primary re-sends
		}
	}
	// Ack the frame's stamp (or our frontier when it was entirely old): the
	// acknowledged range is on stable storage here.
	ack := msg.To
	if frontier < ack {
		ack = frontier
	}
	_ = m.send(m.opts.Member, from, wire.ReplicaAck{Node: node, Rel: rel, To: ack, Durable: true})
}

// applyAck advances a primary's stream on a mirror's durable acknowledgment.
func (m *Manager) applyAck(from string, msg wire.ReplicaAck) {
	if !msg.Durable {
		return // only durable acks advance the stream
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acks++
	p := m.primaries[msg.Node]
	if p == nil {
		return
	}
	d := p.dests[from]
	if d == nil {
		return // stream re-established meanwhile; a fresh sync req re-keys it
	}
	if d.sent[msg.Rel] >= msg.To && d.acked[msg.Rel] < msg.To {
		if d.acked == nil {
			d.acked = storage.Marks{}
		}
		d.acked[msg.Rel] = msg.To
		d.progress = time.Now()
	}
}

// applySyncReq (primary side) establishes or rewinds a stream to the
// mirror's durable frontier — the anti-entropy handshake. Streams exist only
// mirror-solicited: a primary never pushes to a member that has not told it
// where to start, which makes full re-ships explicit rather than accidental.
func (m *Manager) applySyncReq(member string, msg wire.ReplicaSyncReq) {
	m.mu.Lock()
	p := m.primaries[msg.Node]
	if p == nil {
		m.mu.Unlock()
		return
	}
	start := storage.Marks{}
	for rel, seq := range msg.Frontier {
		start[rel] = seq
	}
	p.dests[member] = &destStream{
		sent:     start,
		acked:    start.Clone(),
		progress: time.Now(),
	}
	m.mu.Unlock()
	m.kickFlush()
}

// applyState (mirror side) retains the latest shipped protocol state; the
// blob becomes the adopted peer's restore state after a promotion.
func (m *Manager) applyState(msg wire.ReplicaState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mi := m.mirrors[msg.Node]
	if mi == nil || msg.Epoch < mi.stateEpoch {
		return
	}
	mi.stateEpoch = msg.Epoch
	mi.state = msg.State
}

// syncReqLocked sends (rate-limited) an anti-entropy request for one mirror
// to the node's current primary host. Callers hold m.mu.
func (m *Manager) syncReqLocked(mi *mirror) {
	if time.Since(mi.lastSyncReq) < m.opts.SyncReqEvery {
		return
	}
	mi.lastSyncReq = time.Now()
	req := wire.ReplicaSyncReq{Node: mi.node, Frontier: map[string]uint64{}}
	for rel, seq := range dbMarks(mi.db) {
		req.Frontier[rel] = seq
	}
	host := m.ctl.HostOf(mi.node)
	m.syncReqs++
	//lint:allow goroshutdown bounded: a single transport send, spawned only to get off m.mu
	go func() { _ = m.send(m.opts.Member, host, req) }()
}

// flushLoop is the primary-side shipper: every FlushEvery (or immediately on
// an insert kick), each primary's un-shipped suffix goes to every
// established stream, stalled streams rewind to their acked frontier, and
// changed protocol state ships at the StateEvery cadence.
func (m *Manager) flushLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
		case <-m.kick:
		}
		m.flushOnce()
	}
}

func (m *Manager) kickFlush() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// shipment is one ReplicaAppend prepared under the lock, sent outside it.
type shipment struct {
	to  string
	msg wire.Message
}

func (m *Manager) flushOnce() {
	var out []shipment
	m.mu.Lock()
	for _, p := range m.primaries {
		rels := relNames(p.db)
		shipState := false
		if p.stateFn != nil && time.Since(p.lastShip) >= m.opts.StateEvery {
			p.lastShip = time.Now()
			shipState = true
		}
		var blob []byte
		for member, d := range p.dests {
			// Rewind-on-silence: sent beyond acked with no progress for
			// ResendAfter means a frame (or its ack) was lost — re-ship the
			// unacknowledged suffix.
			if !d.acked.Covers(d.sent) && time.Since(d.progress) >= m.opts.ResendAfter {
				d.sent = d.acked.Clone()
				if d.sent == nil {
					d.sent = storage.Marks{}
				}
				d.progress = time.Now()
				m.rewinds++
			}
			delta, next := p.db.DeltaSince(d.sent, rels)
			for rel, tuples := range delta {
				var base uint64
				if d.sent != nil {
					base = d.sent[rel]
				}
				out = append(out, shipment{to: member, msg: wire.ReplicaAppend{
					Node:   p.node,
					Rel:    rel,
					Attrs:  relAttrs(p.db, rel),
					Base:   base,
					To:     next[rel],
					Tuples: tuples,
				}})
				m.appends++
			}
			if d.sent == nil {
				d.sent = storage.Marks{}
			}
			for rel, seq := range next {
				if seq > d.sent[rel] {
					d.sent[rel] = seq
				}
			}
			if shipState {
				if blob == nil {
					blob, _ = wal.EncodeState(p.stateFn()) // nil on error: nothing ships
				}
				if len(blob) > 0 && !bytes.Equal(blob, d.lastState) {
					d.lastState = blob
					p.stateSeq++
					out = append(out, shipment{to: member, msg: wire.ReplicaState{
						Node: p.node, Epoch: p.stateSeq, State: blob,
					}})
				}
			}
		}
	}
	m.mu.Unlock()
	for _, s := range out {
		_ = m.send(m.opts.Member, s.to, s.msg)
	}
}

// reconcileLoop is the mirror-side placement follower: every ReconcileEvery
// this member re-derives which nodes' placements include it, opens missing
// mirrors (recovering whatever an earlier lifetime left on disk) and
// re-solicits streams that have gone quiet — the join/lag anti-entropy.
func (m *Manager) reconcileLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case <-time.After(m.opts.ReconcileEvery):
		}
		m.reconcileOnce()
	}
}

func (m *Manager) reconcileOnce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, node := range m.opts.Nodes {
		if m.primaries[node] != nil || m.ctl.HostOf(node) == m.opts.Member {
			continue // we host it (or are about to): primaries do not mirror themselves
		}
		placement, _ := m.ctl.PlacementFor(node)
		ours := false
		for _, p := range placement {
			if p == m.opts.Member {
				ours = true
				break
			}
		}
		mi := m.mirrors[node]
		if !ours {
			// Out of the placement: keep the mirror (it may swing back under
			// churn, and stale data only trims future re-ships), just stop
			// soliciting.
			continue
		}
		if mi == nil {
			var err error
			if mi, err = m.openMirrorLocked(node); err != nil {
				continue // disk trouble: retry next tick
			}
		}
		if time.Since(mi.lastAppend) >= m.opts.SyncReqEvery {
			m.syncReqLocked(mi)
		}
	}
}

// openMirrorLocked creates (or re-opens from disk) the mirror for one node
// and registers it. Callers hold m.mu.
func (m *Manager) openMirrorLocked(node string) (*mirror, error) {
	mi := &mirror{node: node}
	if m.opts.DataDir != "" {
		st, rec, err := wal.Open(filepath.Join(m.opts.DataDir, node+".replica"), m.opts.WAL)
		if err != nil {
			return nil, err
		}
		mi.st = st
		mi.db = rec.DB
		if rec.State.Epoch > 0 || len(rec.State.Subs) > 0 || len(rec.State.Parts) > 0 {
			// A previous lifetime promoted this mirror and the adopted peer
			// wrote its protocol state into this store; surface it so a boot
			// re-adoption restores subscriptions instead of starting unprimed.
			mi.state, _ = wal.EncodeState(rec.State) // nil on error: adopts unprimed
		}
		// Attach logs every applied insert; recovery above already replayed
		// the previous lifetime's log into the database, so the durable
		// frontier survives mirror restarts for free.
		st.Attach(mi.db)
	} else {
		mi.db = storage.New()
	}
	m.mirrors[node] = mi
	return mi, nil
}

// Metrics snapshots the manager.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		Primaries:  len(m.primaries),
		Mirrors:    len(m.mirrors),
		Appends:    m.appends,
		Acks:       m.acks,
		SyncReqs:   m.syncReqs,
		Rewinds:    m.rewinds,
		Promotions: m.promotions,
	}
	for _, mi := range m.mirrors {
		out.Diverged += mi.diverged
	}
	out.UnderReplicated = m.underReplicatedLocked()
	return out
}

// underReplicatedLocked counts, across hosted primaries, how many of the K
// wanted replica streams are missing or behind the primary frontier right
// now. Zero means every replica of everything this member hosts is caught
// up. Callers hold m.mu.
func (m *Manager) underReplicatedLocked() int {
	short := 0
	for _, p := range m.primaries {
		frontier := dbMarks(p.db)
		placement, _ := m.ctl.PlacementFor(p.node)
		for _, member := range placement {
			d := p.dests[member]
			if d == nil || !d.acked.Covers(frontier) {
				short++
			}
		}
	}
	return short
}

// StatusReport builds the wire status snapshot: one entry per outbound
// stream and one per mirror, for `p2pdb ctl status` and the E18 experiment.
func (m *Manager) StatusReport() wire.ReplicaStatusReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := wire.ReplicaStatusReport{
		Member:          m.opts.Member,
		K:               m.opts.K,
		UnderReplicated: m.underReplicatedLocked(),
	}
	for _, p := range m.primaries {
		target := marksSum(dbMarks(p.db))
		for member, d := range p.dests {
			rep.Entries = append(rep.Entries, wire.ReplicaStatus{
				Node: p.node, Role: "primary", Peer: member,
				Applied: marksSum(d.acked), Target: target,
			})
		}
	}
	for _, mi := range m.mirrors {
		rep.Entries = append(rep.Entries, wire.ReplicaStatus{
			Node: mi.node, Role: "mirror", Peer: m.ctl.HostOf(mi.node),
			Applied: marksSum(dbMarks(mi.db)), Target: marksSum(dbMarks(mi.db)),
		})
	}
	sort.Slice(rep.Entries, func(i, j int) bool {
		a, b := rep.Entries[i], rep.Entries[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Peer < b.Peer
	})
	return rep
}

// dbMarks reads a database's full high-water vector.
func dbMarks(db *storage.DB) storage.Marks {
	return db.MarksFor(relNames(db))
}

func relNames(db *storage.DB) []string {
	schemas := db.Schemas()
	out := make([]string, len(schemas))
	for i, s := range schemas {
		out[i] = s.Name
	}
	return out
}

func relAttrs(db *storage.DB, rel string) []string {
	for _, s := range db.Schemas() {
		if s.Name == rel {
			return s.Attrs
		}
	}
	return nil
}

func marksSum(m storage.Marks) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
