package core

import (
	"reflect"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/dnn"
	"vdnn/internal/pcie"
)

func zvc() compress.Config { return compress.Config{Codec: compress.CodecZVC} }

// TestCompressionReducesOffloadTraffic is the tentpole's headline property:
// with the ZVC codec active, the wire traffic drops below the raw traffic,
// the raw accounting is unchanged, and the codec busy time is charged.
func TestCompressionReducesOffloadTraffic(t *testing.T) {
	base := Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal}
	comp := base
	comp.Compression = zvc()
	for _, net := range []*dnn.Network{alexNet, vgg64} {
		rb := run(t, net, base)
		rc := run(t, net, comp)
		if rc.OffloadBytes >= rb.OffloadBytes {
			t.Errorf("%s: compression did not shrink offload traffic (%d vs %d)",
				net.Name, rc.OffloadBytes, rb.OffloadBytes)
		}
		if rc.PrefetchBytes >= rb.PrefetchBytes {
			t.Errorf("%s: compression did not shrink prefetch traffic", net.Name)
		}
		if rc.OffloadRawBytes != rb.OffloadBytes {
			t.Errorf("%s: raw bytes %d != uncompressed wire bytes %d",
				net.Name, rc.OffloadRawBytes, rb.OffloadBytes)
		}
		if rb.OffloadRawBytes != rb.OffloadBytes || rb.CompressionRatio != 1 {
			t.Errorf("%s: uncompressed run reports raw %d wire %d ratio %v",
				net.Name, rb.OffloadRawBytes, rb.OffloadBytes, rb.CompressionRatio)
		}
		if rc.CompressionRatio <= 1 {
			t.Errorf("%s: compression ratio %v not > 1", net.Name, rc.CompressionRatio)
		}
		if rc.CompressTime <= 0 || rc.DecompressTime <= 0 {
			t.Errorf("%s: codec time not charged (%v, %v)", net.Name, rc.CompressTime, rc.DecompressTime)
		}
		if rc.OnDemandFetches != 0 {
			t.Errorf("%s: compression broke the prefetch schedule (%d misses)", net.Name, rc.OnDemandFetches)
		}
		// ReLU-heavy offload sets must beat 1.5x under the cdma profile (the
		// follow-up paper's 2-4x is measured on the offloaded activations
		// alone; our wire total includes the dense input batch).
		if rc.CompressionRatio < 1.5 {
			t.Errorf("%s: ratio %.2f implausibly low for the cdma profile", net.Name, rc.CompressionRatio)
		}
	}
}

// TestCompressionDenseProfileIsPassThrough: a profile with no zeros anywhere
// makes every codec bypass, reproducing the uncompressed schedule exactly.
func TestCompressionDenseProfileIsPassThrough(t *testing.T) {
	base := Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, CaptureSchedule: true}
	dense := base
	dense.Compression = compress.Config{Codec: compress.CodecZVC, Sparsity: "dense"}
	rb := run(t, vgg64, base)
	rd := run(t, vgg64, dense)
	if rd.OffloadBytes != rb.OffloadBytes || rd.IterTime != rb.IterTime {
		t.Fatalf("dense-profile run diverged: %d/%v vs %d/%v",
			rd.OffloadBytes, rd.IterTime, rb.OffloadBytes, rb.IterTime)
	}
	if rd.CompressTime != 0 || rd.DecompressTime != 0 {
		t.Fatalf("dense-profile run charged codec time (%v, %v)", rd.CompressTime, rd.DecompressTime)
	}
	if !reflect.DeepEqual(rd.Schedule, rb.Schedule) {
		t.Fatal("dense-profile schedule differs from the uncompressed schedule")
	}
}

// TestCompressionTraceStreams pins where codec events land: compression on
// the offload engine (copyD2H), decompression on the prefetch engine
// (copyH2D), and each bracketed by its transfer on the same engine.
func TestCompressionTraceStreams(t *testing.T) {
	cfg := Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, CaptureSchedule: true}
	cfg.Compression = zvc()
	r := run(t, vgg64, cfg)
	var nCmp, nDec int
	for _, op := range r.Schedule {
		switch op.Kind {
		case "compress":
			nCmp++
			if op.Engine != "copyD2H" {
				t.Fatalf("compression event %q on engine %s, want copyD2H", op.Label, op.Engine)
			}
		case "decompress":
			nDec++
			if op.Engine != "copyH2D" {
				t.Fatalf("decompression event %q on engine %s, want copyH2D", op.Label, op.Engine)
			}
		}
	}
	if nCmp == 0 || nDec == 0 {
		t.Fatalf("codec events missing from the schedule: %d compress, %d decompress", nCmp, nDec)
	}
}

// vetoCompression is a custom policy that defers to vDNN-all for offloading
// but vetoes the codec on every buffer.
type vetoCompression struct{ OffloadPolicy }

func (vetoCompression) Name() string { return "veto-compression" }
func (vetoCompression) Compress(_ *dnn.Network, _ *dnn.Tensor, _ compress.Codec) compress.Codec {
	return compress.CodecNone
}

// TestCompressionPolicyHook: a CompressionPolicy can veto the configured
// codec per buffer, leaving the wire traffic uncompressed.
func TestCompressionPolicyHook(t *testing.T) {
	all, err := BuiltinPolicy(VDNNAll)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: titan(), Algo: MemOptimal, Custom: vetoCompression{all}}
	cfg.Compression = zvc()
	r := run(t, vgg64, cfg)
	plain := run(t, vgg64, Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal})
	if r.OffloadBytes != plain.OffloadBytes || r.CompressionRatio != 1 {
		t.Fatalf("veto policy still compressed: wire %d (plain %d), ratio %v",
			r.OffloadBytes, plain.OffloadBytes, r.CompressionRatio)
	}
}

// TestCompressionMultiDevice: the codec composes with data parallelism —
// every replica compresses, the aggregate accounting holds, and
// contention on the shared root complex still validates.
func TestCompressionMultiDevice(t *testing.T) {
	cfg := Config{
		Spec: titan(), Policy: VDNNAll, Algo: MemOptimal,
		Devices: 2, Topology: pcie.SharedGen3Root(),
	}
	cfg.Compression = zvc()
	r := run(t, vgg64, cfg)
	var wire, raw int64
	for _, d := range r.Devices {
		if d.CompressionRatio <= 1 {
			t.Errorf("device %d ratio %v not > 1", d.Device, d.CompressionRatio)
		}
		if d.CodecBusy <= 0 {
			t.Errorf("device %d codec busy time missing", d.Device)
		}
		wire += d.OffloadBytes
		raw += d.OffloadRawBytes
	}
	if wire != r.OffloadBytes || raw != r.OffloadRawBytes {
		t.Fatalf("aggregate traffic mismatch: wire %d vs %d, raw %d vs %d",
			wire, r.OffloadBytes, raw, r.OffloadRawBytes)
	}
	if r.OffloadBytes >= r.OffloadRawBytes {
		t.Fatal("multi-device compression saved nothing")
	}
}

// TestCompressionPageMigrationNormalizedAway: the codec lives in the DMA
// engines, so the page-migration ablation drops it (and shares cache keys
// with the plain page-migration configuration).
func TestCompressionPageMigrationNormalizedAway(t *testing.T) {
	cfg := Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, PageMigration: true}
	cfg.Compression = zvc()
	if got := cfg.WithDefaults().Compression; got != (compress.Config{}) {
		t.Fatalf("page migration kept compression: %+v", got)
	}
	r := run(t, alexNet, cfg)
	if r.CompressionRatio != 1 || r.CompressTime != 0 {
		t.Fatalf("page-migration run compressed anyway: ratio %v", r.CompressionRatio)
	}
}

// TestCompressionConfigNormalization pins the cache-key contract: the zero
// value stays zero, and an active codec resolves its default profile.
func TestCompressionConfigNormalization(t *testing.T) {
	plain := Config{Spec: titan(), Policy: VDNNAll}.WithDefaults()
	if plain.Compression != (compress.Config{}) {
		t.Fatalf("zero compression normalized to %+v", plain.Compression)
	}
	cfg := Config{Spec: titan(), Policy: VDNNAll}
	cfg.Compression = zvc()
	if got := cfg.WithDefaults().Compression.Sparsity; got != compress.DefaultProfile {
		t.Fatalf("default profile = %q, want %q", got, compress.DefaultProfile)
	}
	bad := Config{Spec: titan(), Policy: VDNNAll}
	bad.Compression = compress.Config{Codec: compress.CodecZVC, Sparsity: "no-such-profile"}
	if _, err := Run(alexNet, bad); err == nil {
		t.Fatal("unknown sparsity profile accepted")
	}
}
