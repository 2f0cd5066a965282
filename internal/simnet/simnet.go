// Package simnet models a distributed-memory cluster fabric on top of the
// sim engine: nodes with a full-duplex network link each, and per-process
// CPU resources that pay software overheads (matching, marshalling, copies).
//
// A message is segmented into protocol chunks. Chunk k of a transfer flows
// store-and-forward through four FIFO resources
//
//	sender CPU -> sender-node egress wire -> receiver-node ingress wire -> receiver CPU
//
// so chunks of one message pipeline across stages, and chunks of concurrent
// messages interleave on shared stages. This reproduces the two effects the
// paper exploits:
//
//   - a single process cannot saturate the wire, because its per-byte
//     software cost (1/CPUCopyRate) exceeds the per-byte wire cost
//     (1/WireBandwidth); more processes per node parallelize the CPU stages;
//   - while one operation's CPU stage (or synchronization gap) runs, the
//     wire is free for another outstanding operation's chunks, so overlapped
//     communication raises wire utilization.
package simnet

import (
	"fmt"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
)

// Config holds the machine model parameters. The defaults are calibrated to
// the Stampede2 Skylake + 100 Gbps Omni-Path numbers reported in the paper
// (peak unidirectional p2p bandwidth ~12 GB/s, microsecond-scale latency,
// node DGEMM rate ~1.5 TF with 48 cores).
type Config struct {
	Nodes int // number of nodes in the machine

	// Wire (per node, per direction).
	WireBandwidth float64 // bytes/s through a node's NIC, each direction
	WireLatency   float64 // seconds of leading-edge latency per chunk

	// CoreBandwidth models the fabric's shared core (Stampede2's fat tree
	// has six core switches): aggregate bytes/s available to all
	// inter-node traffic crossing the core. Zero means a non-blocking
	// fabric (the default; Stampede2's tree is close to non-blocking for
	// 64 nodes). Positive values let experiments study oversubscription.
	CoreBandwidth float64

	// Per-process software costs.
	CPUCopyRate  float64 // bytes/s one process can marshal/inject or extract (eager copies)
	DMARate      float64 // bytes/s of residual CPU involvement on the zero-copy (rendezvous/DMA) path
	SendOverhead float64 // s of sender CPU per chunk (header, descriptor)
	RecvOverhead float64 // s of receiver CPU per chunk (matching, completion)
	MsgOverhead  float64 // s of sender CPU once per message (setup)

	// Protocol.
	ChunkBytes int64 // segmentation size of the pipeline
	EagerLimit int64 // messages <= this skip the rendezvous handshake

	// Intra-node transport (shared memory).
	ShmBandwidth float64 // bytes/s of a node's memory bus for IPC copies
	ShmLatency   float64 // seconds per intra-node message

	// Computation.
	ReduceRate float64 // bytes/s a process combines during reductions
	StageRate  float64 // bytes/s for staging/packing a nonblocking collective
	NodeFlops  float64 // dense-GEMM flop/s of a whole node (all cores)

	// OffloadRate enables the DMA-offload progress engine: a per-node
	// offload resource (the NIC's DMA engine, PCIe-attached) that absorbs
	// the per-chunk forwarding work all of the node's endpoints would
	// otherwise pay on their private NIC lanes, at this many bytes/s.
	// Zero (the default) disables the engine and leaves the seed model's
	// schedule untouched.
	OffloadRate float64

	// Topo selects the fabric topology. The zero value is the flat fabric
	// (every pair of nodes one wire hop apart, optionally through the shared
	// core); see TopoSpec for the hierarchical and torus variants.
	Topo TopoSpec
}

// DefaultOffloadRate is the byte rate the DMA-offload engine runs at when a
// caller enables it without choosing one: a PCIe-generation-matched 32 GB/s,
// comfortably above the wire's 12.4 GB/s in each direction, so the shared
// engine can keep a node's full-duplex wire saturated but still serializes
// when many endpoints burst at once.
const DefaultOffloadRate = 32e9

// DefaultConfig returns the Stampede2-like calibration used by the
// reproduction benchmarks. See DESIGN.md §5 for the calibration targets.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		WireBandwidth: 12.4e9,  // ~12 GB/s peak unidirectional (paper Fig. 3)
		WireLatency:   1.0e-6,  // ~1 us Omni-Path fabric latency
		CPUCopyRate:   8.0e9,   // single-process copy rate, binds eager/small messages
		DMARate:       10.0e9,  // per-process DMA progress: one rank cannot fill the wire
		SendOverhead:  0.35e-6, // per-chunk descriptor/progress cost
		RecvOverhead:  0.35e-6,
		MsgOverhead:   1.2e-6,
		ChunkBytes:    256 << 10,
		EagerLimit:    64 << 10,
		ShmBandwidth:  40.0e9, // aggregate per-node memory-bus rate for IPC copies
		ShmLatency:    0.6e-6,
		ReduceRate:    2.6e9,   // streaming sum: 2 loads + 1 store, NUMA-bound
		StageRate:     12.0e9,  // one packing pass over the buffer
		NodeFlops:     1.56e12, // measured in the paper: 0.01794 s / 2 GEMMs
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("simnet: Nodes = %d, need > 0", c.Nodes)
	case c.WireBandwidth <= 0 || c.CPUCopyRate <= 0 || c.DMARate <= 0 || c.ShmBandwidth <= 0:
		return fmt.Errorf("simnet: bandwidths must be positive")
	case c.ChunkBytes <= 0:
		return fmt.Errorf("simnet: ChunkBytes = %d, need > 0", c.ChunkBytes)
	case c.WireLatency < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0 || c.MsgOverhead < 0 || c.ShmLatency < 0:
		return fmt.Errorf("simnet: latencies and overheads must be >= 0")
	case c.CoreBandwidth < 0:
		return fmt.Errorf("simnet: CoreBandwidth must be >= 0 (0 = non-blocking)")
	case c.ReduceRate <= 0 || c.StageRate <= 0 || c.NodeFlops <= 0:
		return fmt.Errorf("simnet: compute rates must be positive")
	case c.OffloadRate < 0:
		return fmt.Errorf("simnet: OffloadRate must be >= 0 (0 = no offload engine)")
	}
	return c.Topo.validate(c.Nodes)
}

// FaultModel is the hook a perturbation layer (internal/faults) implements
// to disturb the wire pipeline. The engine serializes every call, so
// implementations need no locking; determinism requires each answer be a
// pure function of the implementation's seeded state and the call order,
// which the deterministic engine already fixes.
type FaultModel interface {
	// ChunkDelay returns extra leading-edge latency, in seconds, for one
	// chunk crossing the fabric from src to dst node (0 for none).
	ChunkDelay(src, dst int) float64
	// ChunkFate decides whether one transmission attempt of a chunk is
	// lost in transit. attempt counts from 0. On loss the sender backs off
	// for the returned timeout — the model's retransmission timer, which
	// the injector grows exponentially per attempt — and then retransmits.
	// Implementations must eventually answer lost=false for every chunk so
	// payloads are never silently dropped.
	ChunkFate(src, dst, attempt int) (lost bool, timeout float64)
}

// Net is an instance of the fabric bound to a sim engine.
type Net struct {
	Eng *sim.Engine
	Cfg Config

	// Metrics, when non-nil, receives the fabric's virtual-time counters:
	// bytes on each wire, chunks pushed and in flight, transfers started.
	// A nil registry costs nothing: every Registry method is nil-receiver
	// safe, so call sites never guard.
	Metrics *metrics.Registry

	// Faults, when non-nil, perturbs the wire pipeline with per-chunk
	// latency jitter and transient loss (repaired by timeout + exponential
	// backoff retransmission in the transfer path). Install it before any
	// transfer starts; internal/faults provides the standard implementation.
	Faults FaultModel

	nodes []*nodeRes
	topo  Topology
	// routes caches Route answers per (src,dst) node pair: routes are pure
	// functions of the pair, and caching keeps the per-transfer hot path
	// allocation-free after warm-up.
	routes map[int]cachedRoute
	nep    int // endpoints created, for naming

	// xferPool recycles the per-transfer state (chunk feed slices, the two
	// halves' step state) across transfers. The engine runs exactly one
	// process at a time, so a plain slice needs no locking; each transfer's
	// two halves release their shared state back here when the last one
	// ends.
	xferPool []*xfer
}

type nodeRes struct {
	egress  *sim.Resource
	ingress *sim.Resource
	shm     *sim.Resource
	// offload is the node's DMA engine, created only when Config.OffloadRate
	// is positive; endpoints on the node charge chunk forwarding to it
	// instead of their private NIC lanes.
	offload *sim.Resource

	egressBytes int64 // inter-node payload accounting (Table IV)

	// label is the node's metrics label ("node3"), cached at construction so
	// the per-chunk metric calls in the transfer pipeline never format.
	label string
}

// New builds a fabric on eng with the given configuration.
func New(eng *sim.Engine, cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Net{Eng: eng, Cfg: cfg}
	n.topo = buildTopology(&n.Cfg)
	n.routes = make(map[int]cachedRoute)
	n.nodes = make([]*nodeRes, cfg.Nodes)
	for i := range n.nodes {
		n.nodes[i] = &nodeRes{
			egress:  sim.NewResource(fmt.Sprintf("node%d.egress", i)),
			ingress: sim.NewResource(fmt.Sprintf("node%d.ingress", i)),
			shm:     sim.NewResource(fmt.Sprintf("node%d.shm", i)),
			label:   fmt.Sprintf("node%d", i),
		}
		if cfg.OffloadRate > 0 {
			n.nodes[i].offload = sim.NewResource(fmt.Sprintf("node%d.offload", i))
		}
	}
	return n, nil
}

// Endpoint is a process's attachment to the fabric: a home node plus a
// private CPU resource that all of the process's communication software
// costs are charged to.
type Endpoint struct {
	net  *Net
	Node int
	// CPU carries the process's software work: staging/packing collective
	// buffers, posting overheads, and reduction arithmetic.
	CPU *sim.Resource
	// NIC carries the process's transfer-progress work: per-chunk
	// marshalling/injection and extraction. It is a separate lane so that
	// in-flight messages keep progressing while the process computes — the
	// property (hardware DMA / progress engine) that makes overlapping
	// communication with communication profitable at all.
	NIC *sim.Resource

	// prog, when non-empty, is the endpoint's progress-lane group: the
	// per-chunk forwarding work that would occupy NIC is instead booked
	// round-robin across these resources (a progress rank's CPU, or the
	// node's DMA offload engine), tagged with this endpoint's identity so
	// per-consumer accounting survives the redirect. progRate, when
	// positive, replaces the transfer's per-byte software rate (a hardware
	// engine moves bytes at its own speed); zero keeps the caller's rate
	// (software progress by another rank's CPU is no faster than one's own).
	prog     []*sim.Resource
	progRate float64
	progIdx  int
	progTag  string
}

// SetProgressLanes installs (or, with an empty group, removes) the
// endpoint's progress-lane group. The MPI layer calls this when wiring
// progress ranks; the DMA-offload engine installs itself at NewEndpoint.
// Chunks of one transfer still chain FIFO through the chunk feed, so
// redirecting never reorders a message — it only changes which serial
// facility is billed, and at what byte rate.
func (ep *Endpoint) SetProgressLanes(lanes []*sim.Resource, byteRate float64) {
	ep.prog = lanes
	ep.progRate = byteRate
	ep.progIdx = 0
}

// nicStage books one chunk-pipeline stage (overhead seconds plus bytes at
// rate) for the endpoint: on its private NIC lane by default, or on the
// next progress lane in round-robin order when a group is installed.
func (ep *Endpoint) nicStage(ready, overhead, bytes, rate float64) (start, done float64) {
	if len(ep.prog) == 0 {
		return ep.NIC.Reserve(ready, overhead+bytes/rate)
	}
	if ep.progRate > 0 {
		rate = ep.progRate
	}
	r := ep.prog[ep.progIdx]
	ep.progIdx++
	if ep.progIdx == len(ep.prog) {
		ep.progIdx = 0
	}
	return r.ReserveAs(ep.progTag, ready, overhead+bytes/rate)
}

// NewEndpoint attaches a process to node (0-based).
func (n *Net) NewEndpoint(node int) *Endpoint {
	if node < 0 || node >= n.Cfg.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", node, n.Cfg.Nodes))
	}
	ep := &Endpoint{
		net:  n,
		Node: node,
		CPU:  sim.NewResource(fmt.Sprintf("ep%d.cpu", n.nep)),
		NIC:  sim.NewResource(fmt.Sprintf("ep%d.nic", n.nep)),
	}
	ep.progTag = ep.NIC.Name
	if nd := n.nodes[node]; nd.offload != nil {
		ep.SetProgressLanes([]*sim.Resource{nd.offload}, n.Cfg.OffloadRate)
	}
	n.nep++
	return ep
}

// EachResource visits every FIFO resource the fabric owns (topology links —
// core switch, group uplinks/downlinks, torus rails — then per-node
// egress/ingress wires and shared-memory buses). Endpoint CPU/NIC resources
// belong to their creators and are not visited; the MPI layer's
// World.EachResource covers those. Checkers use this to install audits.
func (n *Net) EachResource(f func(*sim.Resource)) {
	for _, l := range n.topo.Links() {
		f(l.Res)
	}
	for _, nd := range n.nodes {
		f(nd.egress)
		f(nd.ingress)
		f(nd.shm)
		if nd.offload != nil {
			f(nd.offload)
		}
	}
}

// Topology returns the fabric's topology.
func (n *Net) Topology() Topology { return n.topo }

// Links returns the topology's interior links in construction order, for
// per-link-class utilization and byte accounting in benchmarks and tests.
func (n *Net) Links() []*Link { return n.topo.Links() }

// LinkUtilization reports the mean busy fraction of the topology's interior
// links per link class over a window (empty map for a flat non-blocking
// fabric, which has no interior links).
func (n *Net) LinkUtilization(elapsed float64) map[string]float64 {
	links := n.topo.Links()
	if len(links) == 0 || elapsed <= 0 {
		return nil
	}
	sum := make(map[string]float64)
	cnt := make(map[string]int)
	for _, l := range links {
		sum[l.Class] += l.Res.BusyTime() / elapsed
		cnt[l.Class]++
	}
	for c := range sum {
		sum[c] /= float64(cnt[c])
	}
	return sum
}

// cachedRoute is one memoized Route answer.
type cachedRoute struct {
	links []*Link
	lat   float64
}

// routeOf memoizes the topology's route for an inter-node pair.
func (n *Net) routeOf(src, dst int) cachedRoute {
	key := src*n.Cfg.Nodes + dst
	r, ok := n.routes[key]
	if !ok {
		r.links, r.lat = n.topo.Route(src, dst)
		n.routes[key] = r
	}
	return r
}

// EachWire visits each node's egress and ingress wire resources with the
// node's index. The fault-injection layer uses it to install per-link
// degradation hooks; unlike EachResource it preserves the node identity.
func (n *Net) EachWire(f func(node int, egress, ingress *sim.Resource)) {
	for i, nd := range n.nodes {
		f(i, nd.egress, nd.ingress)
	}
}

// TotalWireBytes sums the payload bytes every node's egress wire has
// carried (inter-node traffic only; shared-memory traffic is not counted):
// the machine-wide communication volume the paper's Table IV estimates.
func (n *Net) TotalWireBytes() int64 {
	var t int64
	for i := range n.nodes {
		t += n.nodes[i].egressBytes
	}
	return t
}

// Transfer moves size bytes from src to dst. It returns two gates:
// injected fires when the sender's buffer is reusable (all data has left the
// sending process), delivered fires when the last byte is available at the
// receiving process. Zero-byte transfers still pay per-message overheads and
// latency, which models control messages and barriers.
//
// The transfer runs as a pair of simulation processes — a sender half and a
// receiver half — so that every resource reservation is made at (or within
// one chunk of) its actual virtual start time. Reserving further ahead
// would punch unfillable holes into the FIFO next-free-time resources and
// serialize concurrent transfers that should interleave. Both halves are
// stackless step processes (sim.SpawnStep): state machines the engine
// advances inline, one event per wait, with no goroutine behind them.
func (n *Net) Transfer(src, dst *Endpoint, size int64) (injected, delivered *sim.Gate) {
	injected = n.Eng.NewGate()
	delivered = n.Eng.NewGate()
	n.transfer(src, dst, size, n.Cfg.CPUCopyRate, fireGateCB, injected, fireGateCB, delivered)
	return injected, delivered
}

// fireGateCB adapts the callback-based transfer core to the gate-returning
// public API: a package-level function value, so registering it allocates no
// closure.
var fireGateCB = func(a any) { a.(*sim.Gate).Fire() }

// TransferFn is Transfer with completion callbacks instead of gates:
// onInjected(injArg) runs when the sender's buffer is reusable and
// onDelivered(delArg) when the last byte reaches the receiving process.
// Either callback may be nil. Passing package-level functions plus
// caller-owned arguments makes the per-message fast path allocation-free,
// which is why the MPI layer uses this form; callbacks run inline inside the
// transfer's step processes and must not block.
func (n *Net) TransferFn(src, dst *Endpoint, size int64, onInjected func(any), injArg any, onDelivered func(any), delArg any) {
	n.transfer(src, dst, size, n.Cfg.CPUCopyRate, onInjected, injArg, onDelivered, delArg)
}

// TransferBulkFn is the zero-copy (rendezvous/DMA) path: the wire bears
// the per-byte cost while the endpoints' CPUs pay only a small residual
// per-byte rate (DMARate) plus the per-chunk overheads. The MPI layer
// routes rendezvous payloads here; eager messages, which are copied
// through bounce buffers, use TransferFn. Callbacks are as for TransferFn.
func (n *Net) TransferBulkFn(src, dst *Endpoint, size int64, onInjected func(any), injArg any, onDelivered func(any), delArg any) {
	n.transfer(src, dst, size, n.Cfg.DMARate, onInjected, injArg, onDelivered, delArg)
}

func (n *Net) transfer(src, dst *Endpoint, size int64, cpuRate float64, onInj func(any), injArg any, onDel func(any), delArg any) {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	n.Metrics.Inc("net.transfers", "")
	x := n.getXfer()
	x.src, x.dst = src, dst
	x.size, x.cpuRate = size, cpuRate
	x.onInj, x.injArg = onInj, injArg
	x.onDel, x.delArg = onDel, delArg
	// Pre-size the chunk feed: the chunk count is known at segmentation
	// time, so the per-chunk appends never reallocate mid-transfer.
	chunks := 1
	if size > n.Cfg.ChunkBytes {
		chunks = int((size + n.Cfg.ChunkBytes - 1) / n.Cfg.ChunkBytes)
	}
	x.feed.presize(chunks)
	if src.Node != dst.Node {
		x.rx.rt = n.routeOf(src.Node, dst.Node)
	}
	n.Eng.SpawnStep("xfer-tx", x.txFn)
	x.rx.proc = n.Eng.SpawnStep("xfer-rx", x.rxFn)
}

// xfer is one transfer: the chunk feed its two halves share plus each
// half's program counter and loop state. Both halves are stackless step
// processes (sim.SpawnStep) that advance one event at a time, and each wait
// of the chunk pipeline is exactly one WakeAt or Park. The object is
// recycled through Net.xferPool: refs counts the halves still running, and
// the last one to finish releases it. txFn/rxFn are the step method values
// bound once at construction, so starting a recycled transfer allocates
// nothing.
type xfer struct {
	n              *Net
	src, dst       *Endpoint
	size           int64
	cpuRate        float64
	feed           chunkFeed
	onInj, onDel   func(any)
	injArg, delArg any
	refs           int8
	txFn, rxFn     func(*sim.Proc) bool
	tx             txState
	rx             rxState
}

func (n *Net) getXfer() *xfer {
	if len(n.xferPool) > 0 {
		x := n.xferPool[len(n.xferPool)-1]
		n.xferPool = n.xferPool[:len(n.xferPool)-1]
		x.refs = 2
		return x
	}
	x := &xfer{n: n, refs: 2}
	x.txFn, x.rxFn = x.txStep, x.rxStep
	return x
}

// release returns the transfer state to the pool once both halves are done.
func (x *xfer) release() {
	x.refs--
	if x.refs > 0 {
		return
	}
	x.feed.reset()
	x.onInj, x.onDel = nil, nil
	x.injArg, x.delArg = nil, nil
	x.tx, x.rx = txState{}, rxState{}
	x.n.xferPool = append(x.n.xferPool, x)
}

// chunkFeed hands chunk availability times from the sender half to the
// receiver half of a transfer.
type chunkFeed struct {
	ready []float64 // time chunk i has cleared the sender side
	bytes []int64
	done  bool // sender produced the last chunk
}

func (f *chunkFeed) push(t float64, b int64, last bool) {
	f.ready = append(f.ready, t)
	f.bytes = append(f.bytes, b)
	f.done = f.done || last
}

// presize grows the feed's capacity to hold chunks entries, so the pipeline
// loop appends without reallocating.
func (f *chunkFeed) presize(chunks int) {
	if cap(f.ready) < chunks {
		f.ready = make([]float64, 0, chunks)
		f.bytes = make([]int64, 0, chunks)
	}
}

// reset empties the feed for reuse, keeping the slices' capacity.
func (f *chunkFeed) reset() {
	f.ready = f.ready[:0]
	f.bytes = f.bytes[:0]
	f.done = false
}

// txPC is the sender half's program counter: the wakeup it last booked.
type txPC uint8

const (
	txStart    txPC = iota // spawned: book the per-message setup
	txCPU                  // the chunk's sender-CPU stage has ended
	txCleared              // a lost attempt's bytes have cleared the wire
	txBackoff              // the retransmission timeout has expired
	txReinject             // the re-injection descriptor cost is paid
)

// txState is the sender half's loop state.
type txState struct {
	pc        txPC
	ready     float64 // when the next chunk's CPU stage may start
	cpuDone   float64 // end of the current chunk's CPU stage
	remaining int64   // bytes not yet segmented
	chunk     int64   // bytes in the current chunk
	cleared   float64 // when the current chunk clears the sender side
	attempt   int     // transmission attempt of the current chunk
	timeout   float64 // retransmission timeout of the last lost attempt
}

// txStep drives the sender side: per-message setup, then per chunk a
// sender-CPU stage (marshal/copy) followed by an egress-wire (or
// shared-memory bus) occupancy. The half paces on its CPU stage, so the
// egress reservation happens at the chunk's true start time and chunks of
// concurrent transfers interleave on shared resources.
func (x *xfer) txStep(p *sim.Proc) bool {
	n, s := x.n, &x.tx
	cfg := &n.Cfg
	switch s.pc {
	case txStart:
		_, s.ready = x.src.nicStage(p.Now(), cfg.MsgOverhead, 0, 1)
		s.remaining = x.size
		return x.txNextChunk(p)
	case txCPU:
		if x.src.Node != x.dst.Node {
			return x.txTransmit(p)
		}
		srcNode := n.nodes[x.src.Node]
		cb := float64(s.chunk)
		_, s.cleared = srcNode.shm.Reserve(p.Now(), cb/cfg.ShmBandwidth)
		n.Metrics.Add("net.shm.bytes", srcNode.label, cb)
		return x.txPush(p)
	case txCleared:
		return s.backoff(p)
	case txBackoff:
		n.Metrics.Inc("net.chunks.retrans", "")
		_, reDone := x.src.nicStage(p.Now(), cfg.SendOverhead, 0, 1)
		s.pc = txReinject
		p.WakeAt(reDone)
		return false
	default: // txReinject
		s.attempt++
		return x.txTransmit(p)
	}
}

// txNextChunk segments the next chunk and books its sender-CPU stage.
func (x *xfer) txNextChunk(p *sim.Proc) bool {
	s := &x.tx
	cfg := &x.n.Cfg
	s.chunk = min(s.remaining, cfg.ChunkBytes)
	s.remaining -= s.chunk
	s.attempt = 0
	_, s.cpuDone = x.src.nicStage(s.ready, cfg.SendOverhead, float64(s.chunk), x.cpuRate)
	s.pc = txCPU
	p.WakeAt(s.cpuDone)
	return false
}

// txTransmit puts one transmission attempt of the current chunk on the
// egress wire. Under fault injection an attempt can be lost in transit, in
// which case the sender waits out the retransmission timeout (the injector
// grows it exponentially per attempt), pays the re-injection descriptor cost
// on its NIC lane, and sends the chunk again. Every attempt occupies the
// wire — lost bytes are real traffic.
func (x *xfer) txTransmit(p *sim.Proc) bool {
	n, s := x.n, &x.tx
	srcNode := n.nodes[x.src.Node]
	cb := float64(s.chunk)
	_, s.cleared = srcNode.egress.Reserve(p.Now(), cb/n.Cfg.WireBandwidth)
	srcNode.egressBytes += s.chunk
	n.Metrics.Add("net.wire.bytes", srcNode.label, cb)
	if n.Faults != nil {
		if lost, timeout := n.Faults.ChunkFate(x.src.Node, x.dst.Node, s.attempt); lost {
			n.Metrics.Inc("net.chunks.lost", "")
			s.timeout = timeout
			if s.cleared > p.Now() {
				s.pc = txCleared
				p.WakeAt(s.cleared)
				return false
			}
			return s.backoff(p)
		}
	}
	return x.txPush(p)
}

// backoff books the wakeup at the end of the retransmission timeout.
func (s *txState) backoff(p *sim.Proc) bool {
	s.pc = txBackoff
	p.WakeAt(p.Now() + max(s.timeout, 0))
	return false
}

// txPush hands the current chunk to the receiver half, waking it if it is
// parked on the feed, then segments the next chunk or finishes. The clock
// already stands at or past the last chunk's CPU-stage end, so finishing
// books no further wakeup.
func (x *xfer) txPush(p *sim.Proc) bool {
	n, s := x.n, &x.tx
	n.Metrics.Inc("net.chunks", "")
	n.Metrics.AddGauge("net.chunks.inflight", "", 1)
	x.feed.push(s.cleared, s.chunk, s.remaining <= 0)
	// The receiver lives until it has taken the last chunk, so it is either
	// parked on the feed or has a wakeup pending, and WakeAt is a no-op in
	// the second case.
	x.rx.proc.WakeAt(p.Now())
	s.ready = s.cpuDone
	if s.remaining > 0 {
		return x.txNextChunk(p)
	}
	if x.onInj != nil {
		x.onInj(x.injArg)
	}
	x.release()
	return true
}

// rxPC is the receiver half's program counter: where it resumes.
type rxPC uint8

const (
	rxNext    rxPC = iota // take the next chunk off the feed, or finish
	rxRoute               // an inter-node chunk's leading edge has arrived
	rxLinks               // the chunk has cleared the route's first stage
	rxDeliver             // the chunk has arrived: book the receiver-CPU stage
	rxDone                // the last chunk's receiver-CPU stage has ended
)

// rxState is the receiver half's loop state.
type rxState struct {
	pc          rxPC
	proc        *sim.Proc   // the receiver half, which the sender wakes
	rt          cachedRoute // the inter-node route, looked up at spawn
	k           int         // index of the chunk being received
	next        float64     // the chunk's ready time at the next route stage
	arrive      float64     // the chunk's arrival at the receiving endpoint
	lastDeliver float64     // end of the latest receiver-CPU stage
}

// rxStep drives the receiver side: per chunk, the route's interior links
// (uplink/core/downlink or torus rails, in route order) then an ingress-wire
// occupancy starting when the chunk clears the sender's egress (plus the
// route's leading-edge latency), and a receiver-CPU stage (matching/copy)
// reserved exactly at the chunk's arrival. It finishes (and reports
// delivery) when the last chunk's CPU stage ends. States that book no
// wakeup fall through to the next one within the same event.
func (x *xfer) rxStep(p *sim.Proc) bool {
	n, r := x.n, &x.rx
	cfg := &n.Cfg
	for {
		switch r.pc {
		case rxNext:
			if len(x.feed.ready) <= r.k {
				if !x.feed.done {
					p.Park("signal")
					return false
				}
				// All chunks consumed.
				r.pc = rxDone
				if r.lastDeliver > p.Now() {
					p.WakeAt(r.lastDeliver)
					return false
				}
				continue
			}
			t := x.feed.ready[r.k]
			if x.src.Node == x.dst.Node {
				r.arrive = max(t+cfg.ShmLatency, p.Now())
				r.pc = rxDeliver
				if r.arrive > p.Now() {
					p.WakeAt(r.arrive)
					return false
				}
				continue
			}
			lat := r.rt.lat
			if n.Faults != nil {
				// Per-chunk latency jitter from the fault model (0 when
				// the injector has jitter disabled).
				lat += n.Faults.ChunkDelay(x.src.Node, x.dst.Node)
			}
			r.pc = rxRoute
			if t+lat > p.Now() {
				p.WakeAt(t + lat)
				return false
			}
		case rxRoute:
			// The chunk crosses the route's interior links and then the
			// receiver's ingress wire store-and-forward. The half paces on
			// the first stage and books the downstream stages with chained
			// ready times — the same one-chunk lookahead the sender's NIC
			// chain uses — so chunks of one transfer pipeline across the
			// stages while concurrent transfers still interleave chunk by
			// chunk on shared links.
			r.next = p.Now()
			r.pc = rxLinks
			if len(r.rt.links) > 0 {
				l := r.rt.links[0]
				_, r.next = l.Res.Reserve(r.next, float64(x.feed.bytes[r.k])/l.Bandwidth)
				if r.next > p.Now() {
					p.WakeAt(r.next)
					return false
				}
			}
		case rxLinks:
			b := x.feed.bytes[r.k]
			cb := float64(b)
			for i, l := range r.rt.links {
				if i > 0 {
					_, r.next = l.Res.Reserve(r.next, cb/l.Bandwidth)
				}
				l.bytes += b
				n.Metrics.Add("net.link.bytes", l.Res.Name, cb)
			}
			_, r.arrive = n.nodes[x.dst.Node].ingress.Reserve(r.next, cb/cfg.WireBandwidth)
			r.pc = rxDeliver
			if len(r.rt.links) == 0 && r.arrive > p.Now() {
				// Flat route: the ingress wire is the first stage; pacing on
				// it preserves the original fabric's schedule exactly.
				p.WakeAt(r.arrive)
				return false
			}
		case rxDeliver:
			_, r.lastDeliver = x.dst.nicStage(r.arrive, cfg.RecvOverhead, float64(x.feed.bytes[r.k]), x.cpuRate)
			n.Metrics.AddGauge("net.chunks.inflight", "", -1)
			r.k++
			r.pc = rxNext
		default: // rxDone
			if x.onDel != nil {
				x.onDel(x.delArg)
			}
			x.release()
			return true
		}
	}
}

// Compute charges flops of dense-matrix arithmetic to the calling process,
// assuming ppnActive processes share the node's cores equally. The work is a
// tagged reservation on the endpoint's CPU resource, so compute slices
// contend FIFO with the process's other CPU consumers (collective staging
// and reduction arithmetic posted by nonblocking children, sibling chunk
// pipelines when the rank serves as a progress agent) instead of silently
// owning the CPU; on an otherwise-idle CPU the timing is identical to a
// plain sleep. The caller blocks until the reservation completes.
func (n *Net) Compute(p *sim.Proc, ep *Endpoint, flops float64, ppnActive int) {
	if ppnActive < 1 {
		ppnActive = 1
	}
	rate := n.Cfg.NodeFlops / float64(ppnActive)
	_, done := ep.CPU.ReserveAs("compute", p.Now(), flops/rate)
	p.SleepUntil(done)
}

// ChargeCPU occupies the endpoint's CPU for dur seconds starting now and
// blocks the calling process until the reservation completes. It models
// local software work (posting a nonblocking collective, staging buffers,
// reduction arithmetic) that competes with the process's other
// communication activity.
func (n *Net) ChargeCPU(p *sim.Proc, ep *Endpoint, dur float64) {
	_, done := ep.CPU.Reserve(p.Now(), dur)
	p.SleepUntil(done)
}

// Utilization summarizes resource occupancy over a time window, for
// benchmark reporting: the mean egress-wire busy fraction across nodes and
// the peak single-node fraction. Call after the simulation has run, with
// the window's virtual duration.
func (n *Net) Utilization(elapsed float64) (meanWire, peakWire float64) {
	if elapsed <= 0 {
		return 0, 0
	}
	for i := range n.nodes {
		f := n.nodes[i].egress.BusyTime() / elapsed
		meanWire += f
		if f > peakWire {
			peakWire = f
		}
	}
	meanWire /= float64(len(n.nodes))
	return meanWire, peakWire
}
