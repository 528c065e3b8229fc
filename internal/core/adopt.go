package core

import (
	"fmt"
	"sort"

	"repro/internal/peer"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Re-homing: when a node's primary dies permanently, the control plane elects
// the replica with the highest durable frontier and that member *adopts* the
// node — builds a live peer for it from the mirror database, the mirror's
// write-ahead store and the last shipped protocol state, and serves it under
// the dead node's name. The network definition never changes: adoption only
// moves where one of its nodes runs.

// hosted snapshots the peer table, store table and node order under defMu.
// Adopt replaces all three copy-on-write, so a returned snapshot is immutable
// and safe to iterate without holding the lock.
func (n *Network) hosted() (map[string]*peer.Peer, map[string]*wal.Store, []string) {
	n.defMu.Lock()
	defer n.defMu.Unlock()
	return n.peers, n.stores, n.order
}

// Adopt builds and wires a peer for a node this process did not host: db is
// the promoted mirror's database (its relation seqs must equal the dead
// primary's — the replication stream guarantees it), st its already-attached
// durable store (nil for an in-memory network; Adopt must NOT re-attach it,
// the mirror has been logging applied inserts since creation), and restore
// the last protocol state the dead primary shipped (nil when none arrived:
// the peer starts with no standing subscriptions and the next update wave
// rebuilds them). The transport must already route the node's name to this
// process (cluster.Transport.AllowAlias). Adopting an already-hosted node is
// an error — promotions are agreed, so a double adoption is a logic bug.
func (n *Network) Adopt(node string, db *storage.DB, st *wal.Store, restore *wal.State) error {
	n.defMu.Lock()
	defer n.defMu.Unlock()
	if _, ok := n.peers[node]; ok {
		return fmt.Errorf("core: node %q is already hosted here", node)
	}
	decl, ok := n.def.Node(node)
	if !ok {
		return fmt.Errorf("core: adopt unknown node %q", node)
	}
	var head []rules.Rule
	for _, r := range n.def.Rules {
		if r.HeadNode == node {
			head = append(head, r)
		}
	}
	pOpts := peer.Options{
		Delta:         n.opts.Delta,
		InsertMode:    n.opts.InsertMode,
		MaxNullDepth:  n.opts.MaxNullDepth,
		Maps:          n.def.MapSet(),
		Recorder:      n.opts.Recorder,
		WatchDedupCap: n.opts.WatchDedupCap,
		ResendEvery:   n.opts.ResendEvery,
		DB:            db,
		Restore:       restore,
	}
	if st != nil {
		// Same acknowledgment durability hooks as Build wires for a node's
		// original home.
		pOpts.PersistParts = func(pd wal.PartState) { _ = st.AppendParts(pd) }
		pOpts.PersistMarks = func() { _ = st.SaveMarks() }
		if n.opts.Fsync != wal.FsyncNever {
			pOpts.SyncForAck = st.Sync
		} else {
			pOpts.SyncForAck = st.SyncPoint
		}
	}
	p, err := peer.New(node, decl.Schemas, head, n.tr, pOpts)
	if err != nil {
		return err
	}
	if st != nil {
		// Only the state sources switch over to the live peer; the insert
		// listener has been the mirror's since wal.Open.
		st.SetStateSource(p.DurableState)
		st.SetMarksSource(p.DurableSubs)
	}
	// Pipe acquaintances, both rule directions, exactly as Build wires them.
	// Peers this process already hosts learned the node's name at Build time
	// (neighbor wiring reads the full definition), so only the adopted side
	// needs edges now.
	for _, r := range n.def.Rules {
		for _, src := range r.SourceNodes() {
			if r.HeadNode == node {
				p.AddNeighbor(src)
			}
			if src == node {
				p.AddNeighbor(r.HeadNode)
			}
		}
	}
	// Copy-on-write installation: snapshots handed out by hosted() before
	// this point stay valid and immutable.
	peers := make(map[string]*peer.Peer, len(n.peers)+1)
	for k, v := range n.peers {
		peers[k] = v
	}
	peers[node] = p
	stores := make(map[string]*wal.Store, len(n.stores)+1)
	for k, v := range n.stores {
		stores[k] = v
	}
	if st != nil {
		stores[node] = st
	}
	order := make([]string, 0, len(n.order)+1)
	order = append(order, n.order...)
	order = append(order, node)
	sort.Strings(order)
	n.peers, n.stores, n.order = peers, stores, order
	return nil
}
