// Package fabric simulates an HPE Slingshot fabric: Cassini-style NIC ports
// connected to Rosetta-style switches over 200 Gbps links, with strict
// per-packet Virtual Network (VNI) enforcement at the switch and
// priority-scheduled traffic classes. Every switch is an edge of a
// Topology — a multi-group dragonfly with minimal-path routing, per-link
// congestion accounting and injectable trunk failures — which issues the
// fabric's addresses and routes between its switches; NewSwitch builds the
// one-switch topology of the paper's two-node pilot.
//
// The simulation is discrete-event (see internal/sim): link serialization,
// propagation delay and switch forwarding latency are modelled explicitly,
// so throughput and latency curves emerge from the model rather than being
// table lookups. VNI filtering happens on the forwarding path exactly where
// Rosetta enforces it — a packet is routed only if both the ingress and
// egress ports have been granted the packet's VNI (paper §II-C). That
// admission decision is written once, as Switch.ingress and Switch.egress:
// the packet path charges the reason they return, and the flow fast path
// (SendFlow) declines on it.
//
// # Threading contract
//
// The fabric is single-threaded by construction, inheriting the contract of
// sim.Engine: every packet injection, route resolution, delivery, statistics
// read and failure injection must happen on the goroutine driving the
// owning engine's event loop. Nothing in this package takes a lock, the
// Topology's address counter included — the seed implementation
// serialized every hop through a global Topology mutex, which measured as
// pure overhead because no second goroutine ever exists per engine.
// Concurrency across *engines* (e.g.
// `shssim run -workers N` executing independent scenarios in parallel) is
// safe because engines share nothing: each scenario owns a private Engine,
// Topology and NIC set, and the recycled event-argument structs live on
// free lists (sim.FreeList) that are fields of the object that schedules
// them — a Switch holds its injection, delivery and drop-hook arguments, a
// Topology its in-flight trunk hops — never in package-level state. The
// ownership rule for new hot-path state is the same: put it on the object
// the engine goroutine already confines, and it needs neither a lock nor a
// sync.Pool (the root module's TestEnginesShareNoPoolState runs two stacks
// on two goroutines under the race detector to keep it so).
//
// The contract extends to what attaches to the fabric. A cxi.Device is
// driven only by its engine — service management and endpoint allocation
// from the control plane's events, Send and ReceivePacket from the data
// path's — so it holds no mutex either; its counters, endpoint table and
// reassembly state are plain fields. The sim.Lane each HostLink, trunk
// link and egress port posts its arrivals through is engine state of the
// same kind: it belongs to that one link and is touched only from the
// event loop.
//
// If a future caller needs cross-goroutine access to a live fabric (it
// should not — simulated concurrency is expressed as events), it must
// provide its own serialization around the owning engine.
//
// # Hot path
//
// Per-hop routing is served by a per-(source switch, destination switch)
// next-link cache validated by an epoch counter; SetTrunkDown and
// SetGlobalLinkDown (both directions, fail and recover) bump the epoch, so
// the minimal-path search re-runs only on the first packet over each
// switch pair after a topology change. Packet copies that ride inside
// scheduled events (host-link injection, trunk hops, local delivery, drop
// hooks) live in recycled argument structs dispatched through
// sim.Engine.AtCall, so the steady-state forwarding path performs no heap
// allocation once each owner's free list has filled, within the first
// packets of a run. A link serialises, so its arrival events are posted in
// time order; they go through the link's sim.Lane, which keeps all but the
// earliest of them out of the event queue without changing the order in
// which anything runs. Ports and address owners are slices indexed by
// Addr (the topology issues addresses densely from 1), so the per-packet
// lookups are array reads. docs/performance.md records the measured
// effect.
package fabric
