package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/wal"
)

// Multi-process deployment: `p2pdb serve <net-file> <node>` hosts exactly one
// peer of the network in this OS process, over the cluster membership
// transport — the deployment story the paper sketches with JXTA, with the
// net-file's addr lines as the address book and a join handshake for
// everything the book does not cover. Orchestration comes from outside:
// `p2pdb ctl` (ctl.go) speaks the wire control verbs against the serve
// processes.

var (
	listenAddr   = flag.String("listen", "", "serve/ctl listen address (default: the net-file's addr for the node, else 127.0.0.1:0)")
	joinFlag     = flag.String("join", "", "extra address-book entries, NODE=host:port[,NODE=host:port...]")
	metricsAddr  = flag.String("metrics", "", "serve observability endpoint (host:port; empty = off)")
	hbEvery      = flag.Duration("hb", time.Second, "cluster heartbeat cadence")
	suspectAfter = flag.Duration("suspect", 0, "silence window before suspecting a member (0 = 3×hb)")
	batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "batch answers/acks per member into one frame per send burst, flushed as soon as the burst drains; the duration only bounds how long a running handler may hold its sends (0 = one frame per message)")
	batchBytes   = flag.Int("batch-bytes", 64<<10, "flush a batch early past this payload size")
	replicasK    = flag.Int("replicas", 0, "mirror each node's extensional relations on this many other members, with promotion fail-over (0 = off)")
	deadAfter    = flag.Duration("dead-after", 0, "continuous suspicion before a member is declared permanently dead and its nodes fail over (0 = 10s)")
)

// parseJoin parses the -join flag ("A=127.0.0.1:7101,B=...").
func parseJoin(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -join entry %q (want NODE=host:port)", part)
		}
		out[name] = addr
	}
	return out, nil
}

// clusterOpts builds the membership tuning from the flags. The batched wire
// protocol lives in the cluster transport (not core.Options.BatchWindow), so
// the membership plane's heartbeats share frames with the peer's traffic.
func clusterOpts() cluster.Options {
	return cluster.Options{
		HeartbeatEvery: *hbEvery,
		SuspectAfter:   *suspectAfter,
		BatchWindow:    *batchWindow,
		BatchBytes:     *batchBytes,
	}
}

// cmdServe hosts one node of the network in this process until SIGINT or
// SIGTERM, then closes cleanly: watchers drain, the cluster says Goodbye,
// and the durable store (with -data) seals with a clean-close record so the
// next start recovers and re-joins delta-only.
func cmdServe(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: p2pdb serve <net-file> <node>")
	}
	def, err := loadNet(args[0])
	if err != nil {
		return err
	}
	node := args[1]
	if _, ok := def.Node(node); !ok {
		return fmt.Errorf("node %q not declared in %s", node, args[0])
	}
	joins, err := parseJoin(*joinFlag)
	if err != nil {
		return err
	}
	book := map[string]string{}
	for name, addr := range def.Addrs {
		book[name] = addr
	}
	for name, addr := range joins {
		book[name] = addr
	}
	listen := *listenAddr
	if listen == "" {
		listen = def.Addrs[node]
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}

	tr, err := cluster.New(node, listen, book, clusterOpts())
	if err != nil {
		return err
	}
	o, err := opts(nil)
	if err != nil {
		_ = tr.Close()
		return err
	}
	// A long-lived serve process defaults the ack-resend loop on (losses the
	// membership layer cannot see still heal); the deterministic one-shot
	// modes leave it off unless asked. Negative -resend disables it here
	// too. Only with -delta: the resend loop re-ships from acked frontiers,
	// which only the delta configuration maintains — core.Build rejects the
	// combination loudly, so don't default into it.
	if *resend == 0 && o.Delta {
		o.ResendEvery = time.Second
	}
	o.Transport = tr
	o.Hosted = []string{node}
	n, err := core.Build(def, o) // Build owns tr from here (closes it on error)
	if err != nil {
		return err
	}
	// A member coming back from suspicion or a clean leave is a dependent
	// whose acknowledgments stopped: re-ship everything past its acked
	// frontier now, instead of waiting for the resend timeout or the next
	// epoch.
	tr.SetOnMemberUp(func(member string) {
		if p := n.Peer(node); p != nil {
			p.ResendUnackedTo(member)
		}
	})
	// A member that died or left will never consume another watch delta: drop
	// its wire watches now, so their queues stop accumulating. A client that
	// merely blinked reconnects with its resume token and loses nothing.
	tr.SetOnStatusChange(func(member string, st cluster.Status) {
		if st == cluster.StatusDead || st == cluster.StatusLeft {
			if p := n.Peer(node); p != nil {
				p.CancelRemoteWatches(member)
			}
		}
	})

	// The replicated control plane: a consensus log over the net-file's
	// fixed node set. Control verbs arriving at ANY member become agreed log
	// entries, and a killed update-driver is replaced by the next eligible
	// member. With -data the applied entries persist beside the node's WAL
	// directory and replay on restart.
	var mgr *replica.Manager
	deposed := make(chan string, 1)
	var names []string
	for _, d := range def.Nodes {
		names = append(names, d.Name)
	}
	copts := cluster.ControlPlaneOptions{}
	if o.DataDir != "" {
		copts.Consensus.LogPath = filepath.Join(o.DataDir, node+".control.log")
	}
	// The replica subsystem and the control plane are mutually
	// referential — the plane's election hooks call into the manager, the
	// manager reads the plane's agreed placement — so the hooks gate on
	// mgrReady and the manager is built right after the plane.
	mgrReady := make(chan struct{})
	var promote func(string)
	if *replicasK > 0 {
		promote = func(dead string) {
			<-mgrReady
			if p := n.Peer(dead); p != nil {
				// Already hosted here (a promotion replayed at boot after a
				// restart): just refresh the manager's callbacks.
				mgr.BecomePrimary(dead, p.DB(), p.DurableState)
				return
			}
			tr.AllowAlias(dead)
			db, st, restore, err := mgr.Promote(dead)
			if err != nil {
				fmt.Fprintf(os.Stderr, "promote %s: %v\n", dead, err)
				return
			}
			if err := n.Adopt(dead, db, st, restore); err != nil {
				fmt.Fprintf(os.Stderr, "adopt %s: %v\n", dead, err)
				return
			}
			p := n.Peer(dead)
			mgr.BecomePrimary(dead, p.DB(), p.DurableState)
			fmt.Printf("promoted: now hosting %s (frontier %d)\n", dead, mgr.Frontier(dead))
		}
		copts.Replication = cluster.ReplicationOptions{
			K:         *replicasK,
			DeadAfter: *deadAfter,
			Frontier: func(dead string) uint64 {
				<-mgrReady
				return mgr.Frontier(dead)
			},
			OnPromote: promote,
			OnDeposed: func(own string) {
				// The agreed log re-homed this process's own node: serving
				// on would fork the fix-point. Break the signal wait.
				select {
				case deposed <- own:
				default:
				}
			},
		}
	}
	cp, err := cluster.NewControlPlane(tr, n.Peer(node), names, copts)
	if err != nil {
		_ = n.Close()
		return err
	}
	if cp.Deposed() {
		// A previous lifetime's log already records this node as re-homed:
		// refuse to serve rather than fork it.
		cp.Close()
		_ = n.Close()
		return fmt.Errorf("%s was declared dead and re-homed to %s; refusing to serve (clear the data dir to rejoin fresh)", node, cp.HostOf(node))
	}
	if *replicasK > 0 {
		mgr = replica.New(cp, tr.Send, replica.Options{
			Member:  node,
			Nodes:   names,
			K:       *replicasK,
			DataDir: o.DataDir,
			WAL:     wal.Options{Fsync: o.Fsync},
		})
		tr.SetReplica(mgr.Handle)
		if p := n.Peer(node); p != nil {
			mgr.BecomePrimary(node, p.DB(), p.DurableState)
		}
		close(mgrReady)
		// Boot recovery: promotions agreed in a previous lifetime re-adopt
		// from the mirror stores before the process serves traffic.
		for _, dead := range cp.AdoptedNodes() {
			promote(dead)
		}
	}
	tr.Announce()

	if *metricsAddr != "" {
		maddr, closeMetrics, err := cluster.StartMetrics(*metricsAddr, func() cluster.NodeMetrics {
			m := cluster.CollectNodeMetrics(n, tr, cp, node)
			if mgr != nil {
				rm := cluster.CollectReplicationMetrics(mgr, cp, node)
				m.Replication = &rm
			}
			return m
		})
		if err != nil {
			_ = n.Close()
			return err
		}
		defer func() { _ = closeMetrics() }()
		fmt.Printf("metrics at http://%s/metrics\n", maddr)
	}

	fmt.Printf("serving %s at %s (pid %d)\n", node, tr.Addr(), os.Getpid())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("%s: closing %s cleanly\n", s, node)
	case own := <-deposed:
		fmt.Fprintf(os.Stderr, "deposed: %s is hosted elsewhere now; shutting down\n", own)
	}
	signal.Stop(sig)
	cp.Close() // stop proposing/driving before the transport goes away
	if mgr != nil {
		mgr.Close() // seal the mirror stores with clean-close records
	}
	return n.Close()
}
