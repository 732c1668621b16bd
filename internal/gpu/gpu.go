// Package gpu models the GPU device vDNN runs on: a serial compute engine
// (the SM array, which DNN kernels saturate one at a time due to layer-wise
// dependencies), two DMA copy engines (Maxwell GM200 has independent D2H and
// H2D engines, which is what lets offload and prefetch overlap with
// compute), device DRAM capacity and bandwidth, and a power model.
package gpu

import (
	"fmt"
	"strings"

	"vdnn/internal/pcie"
	"vdnn/internal/sim"
)

// MemoryKind classifies a device's memory technology. Like pcie.LinkClass
// it is catalog metadata: the cost model reads only DRAMBps/MemBytes, so the
// kind never changes a schedule — it describes the capacity/bandwidth point
// (GDDR vs HBM stacks vs the accelerator-resident DRAM of a near-memory
// design) for catalog consumers.
type MemoryKind int

const (
	// GDDR is the zero value: conventional off-package graphics DRAM.
	GDDR MemoryKind = iota
	// HBM covers on-package stacked high-bandwidth memory (P100-class).
	HBM
	// NearDRAM marks a near/in-memory accelerator whose compute sits inside
	// the DRAM stack itself (RAPIDNN-style).
	NearDRAM
)

var memoryKindNames = map[MemoryKind]string{
	GDDR:     "gddr",
	HBM:      "hbm",
	NearDRAM: "near-dram",
}

// String returns the canonical lowercase token.
func (k MemoryKind) String() string {
	if s, ok := memoryKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("MemoryKind(%d)", int(k))
}

// MarshalText emits the canonical token, making MemoryKind JSON-friendly.
func (k MemoryKind) MarshalText() ([]byte, error) {
	s, ok := memoryKindNames[k]
	if !ok {
		return nil, fmt.Errorf("gpu: unknown memory kind %d", int(k))
	}
	return []byte(s), nil
}

// UnmarshalText parses a canonical token, case-insensitively.
func (k *MemoryKind) UnmarshalText(text []byte) error {
	t := strings.ToLower(string(text))
	for kk, s := range memoryKindNames {
		if s == t {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("gpu: unknown memory kind %q (have gddr, hbm, near-dram)", string(text))
}

// Spec is a GPU hardware description. All cost models are parameterized on
// it so "what-if" devices (more memory, NVLINK, ...) are one literal away.
type Spec struct {
	Name string `json:"name"`

	PeakFlops float64 `json:"peak_flops"` // single-precision FLOP/s
	DRAMBps   float64 `json:"dram_bps"`   // peak DRAM bandwidth, bytes/s
	// EffDRAMFrac is the fraction of peak DRAM bandwidth streaming kernels
	// achieve in practice (copy/transform kernels never hit theoretical peak).
	EffDRAMFrac float64 `json:"eff_dram_frac"`

	MemBytes      int64 `json:"mem_bytes"`                // physical device memory
	ReservedBytes int64 `json:"reserved_bytes,omitempty"` // CUDA context + cuDNN handle + driver reservation
	L2Bytes       int64 `json:"l2_bytes"`                 // last-level cache, used by the DRAM-traffic model

	// MemKind is the memory technology of the capacity/bandwidth point above;
	// metadata only, never read by the cost model.
	MemKind MemoryKind `json:"mem_kind,omitempty"`

	Link pcie.Link `json:"link"` // host interconnect

	LaunchOverhead sim.Time `json:"launch_overhead"` // host cost of one async launch
	SyncOverhead   sim.Time `json:"sync_overhead"`   // host cost of one blocking synchronization

	Power PowerParams `json:"power"`
}

// PowerParams is a linear power model: idle floor, a compute-engine term, a
// DRAM term proportional to achieved bandwidth, and a per-active-copy-engine
// term. Calibrated so a fully busy Titan X sits near its 250 W TDP.
type PowerParams struct {
	IdleW    float64 `json:"idle_w"`    // board power with an active CUDA context, no work
	ComputeW float64 `json:"compute_w"` // added when the compute engine is busy
	DRAMW    float64 `json:"dram_w"`    // added at 100% of peak DRAM bandwidth, scaled linearly
	CopyW    float64 `json:"copy_w"`    // added per busy copy engine
}

// TitanX returns the paper's evaluation platform: NVIDIA GeForce GTX Titan X
// (Maxwell GM200): 7 TFLOPS single precision, 336 GB/s, 12 GB, PCIe gen3.
func TitanX() Spec {
	return Spec{
		Name:          "NVIDIA Titan X (Maxwell)",
		PeakFlops:     7e12,
		DRAMBps:       336e9,
		EffDRAMFrac:   0.85,
		MemBytes:      12 << 30,
		ReservedBytes: 0, // the paper sizes the cnmem pool to the full physical capacity

		L2Bytes:        3 << 20,
		Link:           pcie.Gen3x16(),
		LaunchOverhead: 5 * sim.Microsecond,
		SyncOverhead:   10 * sim.Microsecond,
		Power: PowerParams{
			IdleW:    80,
			ComputeW: 140,
			DRAMW:    45,
			CopyW:    8,
		},
	}
}

// TitanXNVLink is a what-if Titan X with an NVLINK-class interconnect
// (the paper points at NVLINK as the successor link, Section III-A).
func TitanXNVLink() Spec {
	s := TitanX()
	s.Name = "Titan X + NVLINK 1.0"
	s.Link = pcie.NVLink1()
	return s
}

// GTX980 is the previous-generation Maxwell card (GM204): less compute,
// less bandwidth, and only 4 GB — a device where vDNN matters even for the
// smaller benchmark networks.
func GTX980() Spec {
	s := TitanX()
	s.Name = "NVIDIA GTX 980"
	s.PeakFlops = 4.6e12
	s.DRAMBps = 224e9
	s.MemBytes = 4 << 30
	s.L2Bytes = 2 << 20
	s.Power = PowerParams{IdleW: 60, ComputeW: 100, DRAMW: 35, CopyW: 8}
	return s
}

// TeslaK40 is the Kepler-generation compute card the field trained on
// before Maxwell: 12 GB but far less compute throughput.
func TeslaK40() Spec {
	s := TitanX()
	s.Name = "NVIDIA Tesla K40"
	s.PeakFlops = 4.29e12
	s.DRAMBps = 288e9
	s.MemBytes = 12 << 30
	s.Power = PowerParams{IdleW: 66, ComputeW: 120, DRAMW: 40, CopyW: 8}
	return s
}

// PascalP100 is a forward-looking device for what-if sweeps: more compute,
// HBM2 bandwidth, 16 GB, and an NVLINK host interconnect.
func PascalP100() Spec {
	s := TitanX()
	s.Name = "NVIDIA P100 (NVLINK)"
	s.PeakFlops = 10.6e12
	s.DRAMBps = 732e9
	s.MemBytes = 16 << 30
	s.L2Bytes = 4 << 20
	s.MemKind = HBM
	s.Link = pcie.NVLink1()
	s.Power = PowerParams{IdleW: 90, ComputeW: 160, DRAMW: 40, CopyW: 8}
	return s
}

// RapidNN is a RAPIDNN-style near-memory accelerator profile: compute sits
// inside the DRAM stack, so "offload" traffic moves between banks over an
// on-die fabric at near-DRAM bandwidth — the wire cost of vDNN's eviction is
// almost free, inverting the offload-vs-keep tradeoff the paper evaluates on
// PCIe. Kernel costs differ too: less raw FLOP throughput than a Titan X but
// an order of magnitude more memory bandwidth at a fraction of the board
// power (no GDDR PHYs, no long board traces).
func RapidNN() Spec {
	return Spec{
		Name:           "RAPIDNN near-memory accelerator",
		PeakFlops:      3e12,
		DRAMBps:        1e12,
		EffDRAMFrac:    0.95,
		MemBytes:       8 << 30,
		L2Bytes:        4 << 20,
		MemKind:        NearDRAM,
		Link:           pcie.OnDie(),
		LaunchOverhead: 2 * sim.Microsecond,
		SyncOverhead:   4 * sim.Microsecond,
		Power: PowerParams{
			IdleW:    25,
			ComputeW: 45,
			DRAMW:    18,
			CopyW:    2,
		},
	}
}

// WithMemory returns the spec with a different physical memory size; used by
// the capacity-sweep ablation.
func (s Spec) WithMemory(bytes int64) Spec {
	s.MemBytes = bytes
	return s
}

// PoolBytes is the device memory available to the framework's memory pool:
// physical capacity minus the driver/runtime reservation. vDNN sizes its
// cnmem pool to this value at startup (Section III-B).
func (s Spec) PoolBytes() int64 { return s.MemBytes - s.ReservedBytes }

// EffDRAMBps is the achievable DRAM bandwidth for streaming kernels.
func (s Spec) EffDRAMBps() float64 { return s.DRAMBps * s.EffDRAMFrac }

// Validate checks that the spec is physically sensible.
func (s Spec) Validate() error {
	if s.PeakFlops <= 0 || s.DRAMBps <= 0 {
		return fmt.Errorf("gpu: non-positive throughput in %q", s.Name)
	}
	if s.EffDRAMFrac <= 0 || s.EffDRAMFrac > 1 {
		return fmt.Errorf("gpu: EffDRAMFrac %v out of (0,1] in %q", s.EffDRAMFrac, s.Name)
	}
	if s.PoolBytes() <= 0 || s.ReservedBytes < 0 {
		return fmt.Errorf("gpu: reservation exceeds memory in %q", s.Name)
	}
	if s.L2Bytes <= 0 {
		return fmt.Errorf("gpu: non-positive L2 in %q", s.Name)
	}
	return s.Link.Validate()
}

// Device binds a Spec to a simulation timeline with the standard engine and
// stream layout used by both the baseline and vDNN runtimes. Several devices
// may share one timeline (one event clock) — the trainer binds every device
// of its replicas × stages grid to a single timeline and, under a shared
// topology, to a pair of shared interconnect channels.
type Device struct {
	Spec Spec
	TL   *sim.Timeline

	// ID is the device's replica index (0 for single-device simulations).
	ID int

	Compute *sim.Engine // SM array
	DMADown *sim.Engine // device-to-host copy engine (offload)
	DMAUp   *sim.Engine // host-to-device copy engine (prefetch)

	StreamCompute *sim.Stream // paper's stream_compute
	StreamMemory  *sim.Stream // paper's stream_memory

	// ChanDown/ChanUp are the shared root-complex channels the device's DMA
	// traffic is arbitrated over, one per direction (PCIe is full duplex).
	// Nil means a dedicated link: transfers take their fixed DMA time.
	ChanDown *sim.SharedChannel
	ChanUp   *sim.SharedChannel

	// UsePageMigration switches host<->device transfers from pinned-memory
	// DMA to demand paging, reproducing the paper's Section II-C argument
	// against page-migration-based virtualization.
	UsePageMigration bool
}

// TransferTime returns the host<->device transfer latency for n bytes under
// the device's configured transfer mode.
func (d *Device) TransferTime(n int64) sim.Time {
	if d.UsePageMigration {
		return d.Spec.Link.PageMigrationTime(n)
	}
	return d.Spec.Link.DMATime(n)
}

// NewDevice creates a device and its own timeline, on a dedicated link.
func NewDevice(spec Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return NewDeviceOn(sim.New(spec.LaunchOverhead, spec.SyncOverhead), spec, 0, nil, nil)
}

// NewDeviceOn creates replica id on an existing timeline, optionally behind
// shared root-complex channels (nil channels = dedicated link). All replicas
// of a multi-device simulation share one timeline — one event clock, one
// host issue thread — while each keeps its own engines and streams.
func NewDeviceOn(tl *sim.Timeline, spec Spec, id int, down, up *sim.SharedChannel) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		Spec:          spec,
		TL:            tl,
		ID:            id,
		Compute:       tl.NewEngine("compute"),
		DMADown:       tl.NewEngine("copyD2H"),
		DMAUp:         tl.NewEngine("copyH2D"),
		StreamCompute: tl.NewStream("stream_compute"),
		StreamMemory:  tl.NewStream("stream_memory"),
		ChanDown:      down,
		ChanUp:        up,
	}
}

// Engines returns the device's own engines (a subset of the timeline's when
// several replicas share it).
func (d *Device) Engines() []*sim.Engine {
	return []*sim.Engine{d.Compute, d.DMADown, d.DMAUp}
}

// Ops returns every op executed on this device's engines. When several
// replicas share a timeline this is the device's slice of the schedule; for
// a single device it covers the whole timeline.
func (d *Device) Ops() []*sim.Op {
	var out []*sim.Op
	for _, e := range d.Engines() {
		out = append(out, e.Ops()...)
	}
	return out
}

// Kernel issues a compute kernel on stream_compute.
func (d *Device) Kernel(label string, dur sim.Time, flops, dramBytes int64, deps ...*sim.Op) *sim.Op {
	return d.TL.Issue(&sim.Op{
		Label: label, Kind: sim.OpKernel,
		DurationT: dur, Flops: flops, DRAMBytes: dramBytes,
	}, d.StreamCompute, d.Compute, deps...)
}

// transfer issues one DMA op, arbitrated over the shared channel when the
// device sits behind one (page-migration transfers bypass the DMA engines'
// bulk path and keep their fixed cost).
func (d *Device) transfer(label string, kind sim.OpKind, n int64, s *sim.Stream, e *sim.Engine, ch *sim.SharedChannel, deps ...*sim.Op) *sim.Op {
	op := &sim.Op{Label: label, Kind: kind, BusBytes: n, DRAMBytes: n}
	if ch != nil && !d.UsePageMigration {
		link := d.Spec.Link
		return d.TL.IssueTransfer(op, s, e, ch, n, float64(link.EffBps), link.DMASetup, deps...)
	}
	op.DurationT = d.TransferTime(n)
	return d.TL.Issue(op, s, e, deps...)
}

// Offload issues a D2H transfer of n bytes on stream_memory.
func (d *Device) Offload(label string, n int64, deps ...*sim.Op) *sim.Op {
	return d.transfer(label, sim.OpCopyD2H, n, d.StreamMemory, d.DMADown, d.ChanDown, deps...)
}

// Prefetch issues an H2D transfer of n bytes on stream_memory.
func (d *Device) Prefetch(label string, n int64, deps ...*sim.Op) *sim.Op {
	return d.transfer(label, sim.OpCopyH2D, n, d.StreamMemory, d.DMAUp, d.ChanUp, deps...)
}

// Compress issues a codec pass on the offload path: the D2H DMA engine is
// busy for dur reading rawBytes from DRAM before the compressed transfer it
// feeds (the cDMA engine lives inside the DMA engine, not on the SMs).
func (d *Device) Compress(label string, dur sim.Time, rawBytes int64, deps ...*sim.Op) *sim.Op {
	return d.TL.Issue(&sim.Op{
		Label: label, Kind: sim.OpCompress,
		DurationT: dur, DRAMBytes: rawBytes,
	}, d.StreamMemory, d.DMADown, deps...)
}

// Decompress issues a codec pass on the prefetch path: the H2D DMA engine is
// busy for dur expanding a landed transfer back to rawBytes in DRAM. Ordering
// behind the transfer comes from stream_memory's program order; consumers
// depending on the returned op pay the decompression before use.
func (d *Device) Decompress(label string, dur sim.Time, rawBytes int64, deps ...*sim.Op) *sim.Op {
	return d.TL.Issue(&sim.Op{
		Label: label, Kind: sim.OpDecompress,
		DurationT: dur, DRAMBytes: rawBytes,
	}, d.StreamMemory, d.DMAUp, deps...)
}

// p2p issues one leg of a peer-to-peer transfer (gradient all-reduce).
// Peer DMA uses the copy engines and crosses the root complex like any bulk
// transfer, but never demand-pages, so it keeps DMA cost even under the
// page-migration ablation.
func (d *Device) p2p(label string, n int64, s *sim.Stream, e *sim.Engine, ch *sim.SharedChannel, deps ...*sim.Op) *sim.Op {
	op := &sim.Op{Label: label, Kind: sim.OpCopyP2P, BusBytes: n, DRAMBytes: n}
	link := d.Spec.Link
	if ch != nil {
		return d.TL.IssueTransfer(op, s, e, ch, n, float64(link.EffBps), link.DMASetup, deps...)
	}
	op.DurationT = link.DMATime(n)
	return d.TL.Issue(op, s, e, deps...)
}

// PeerSend issues a P2P transfer toward a peer device (outbound direction,
// sharing the D2H engine and the root complex's down channel).
func (d *Device) PeerSend(label string, n int64, s *sim.Stream, deps ...*sim.Op) *sim.Op {
	return d.p2p(label, n, s, d.DMADown, d.ChanDown, deps...)
}

// PeerRecv issues a P2P transfer from a peer device (inbound direction,
// sharing the H2D engine and the root complex's up channel).
func (d *Device) PeerRecv(label string, n int64, s *sim.Stream, deps ...*sim.Op) *sim.Op {
	return d.p2p(label, n, s, d.DMAUp, d.ChanUp, deps...)
}

// stage issues one leg of an inter-stage pipeline transfer (boundary
// activation forward, boundary gradient backward). Like peer DMA it uses the
// copy engines, crosses the root complex like any bulk transfer, and never
// demand-pages — but it is a distinct op kind so pipeline traffic is never
// conflated with gradient all-reduce traffic in metrics.
func (d *Device) stage(label string, n int64, s *sim.Stream, e *sim.Engine, ch *sim.SharedChannel, deps ...*sim.Op) *sim.Op {
	op := &sim.Op{Label: label, Kind: sim.OpCopyStage, BusBytes: n, DRAMBytes: n}
	link := d.Spec.Link
	if ch != nil {
		return d.TL.IssueTransfer(op, s, e, ch, n, float64(link.EffBps), link.DMASetup, deps...)
	}
	op.DurationT = link.DMATime(n)
	return d.TL.Issue(op, s, e, deps...)
}

// StageSend issues an inter-stage transfer toward the next pipeline stage
// (outbound: D2H engine, root complex down channel).
func (d *Device) StageSend(label string, n int64, s *sim.Stream, deps ...*sim.Op) *sim.Op {
	return d.stage(label, n, s, d.DMADown, d.ChanDown, deps...)
}

// StageRecv issues an inter-stage transfer from the previous pipeline stage
// (inbound: H2D engine, root complex up channel).
func (d *Device) StageRecv(label string, n int64, s *sim.Stream, deps ...*sim.Op) *sim.Op {
	return d.stage(label, n, s, d.DMAUp, d.ChanUp, deps...)
}

// BusTraffic returns total bytes this device moved over the interconnect,
// split by direction (offload, prefetch). All-reduce (P2P) traffic is
// counted separately by the trainer.
func (d *Device) BusTraffic() (down, up int64) {
	for _, e := range d.Engines() {
		for _, o := range e.Ops() {
			switch o.Kind {
			case sim.OpCopyD2H:
				down += o.BusBytes
			case sim.OpCopyH2D:
				up += o.BusBytes
			}
		}
	}
	return down, up
}
