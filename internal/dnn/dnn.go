// Package dnn represents neural networks the way vDNN sees them: a
// topologically ordered list of layers connected through shared feature-map
// buffers, with explicit producer/consumer relationships. The paper's key
// structural observations all live here:
//
//   - training is a statically fixed, layer-wise sequence (Section I);
//   - non-linear topologies fork and join buffers, tracked with reference
//     counts so offload/release only happens at the LAST consumer (Fig 3);
//   - activation layers run in place, so a CONV->ACTV->CONV chain shares one
//     buffer end to end (Section II-B, footnote 1);
//   - the network splits into feature-extraction layers (managed by vDNN)
//     and classifier layers (left as-is, Section III).
package dnn

import (
	"fmt"
	"sync"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/tensor"
)

// LayerKind enumerates the layer types of the paper's benchmark networks.
type LayerKind int

const (
	Conv LayerKind = iota
	ReLU
	Pool
	LRN
	Concat
	Add
	BatchNorm
	FC
	Dropout
	SoftmaxLoss
)

var kindNames = [...]string{"CONV", "ACTV", "POOL", "LRN", "CONCAT", "ADD", "BN", "FC", "DROP", "LOSS"}

func (k LayerKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Stage splits the network as the paper does: vDNN manages the feature
// extraction layers; classification layers are executed unchanged.
type Stage int

const (
	FeatureExtraction Stage = iota
	Classifier
)

func (s Stage) String() string {
	if s == FeatureExtraction {
		return "feature-extraction"
	}
	return "classifier"
}

// Tensor is a device buffer holding a feature map. In-place layers (ReLU,
// classifier dropout) do not create new Tensors: their output is the same
// buffer, which is how Torch's in-place optimization is modeled.
type Tensor struct {
	ID       int
	Shape    tensor.Shape
	Producer *Layer   // nil for the network input
	Consumer []*Layer // layers reading this buffer, in execution order

	// GradShare is set on inputs of gradient-sharing joins: Concat (each
	// branch gradient is a disjoint view of the concat output's gradient)
	// and elementwise Add (each input's gradient IS the output's gradient,
	// distributed by the chain rule). In both cases no separate gradient
	// buffer exists for this tensor; it aliases the join output's.
	GradShare *Tensor
}

// Bytes returns the buffer footprint for the network's element type.
func (t *Tensor) Bytes(d tensor.DType) int64 { return t.Shape.Bytes(d) }

// LastConsumer returns the consumer latest in execution order, or nil.
// During forward propagation a buffer may be released/offloaded only once
// its last consumer is the layer being processed (paper Fig 3 and Fig 7).
func (t *Tensor) LastConsumer() *Layer {
	if len(t.Consumer) == 0 {
		return nil
	}
	return t.Consumer[len(t.Consumer)-1]
}

// ConvSpec is the geometry of a convolution layer.
type ConvSpec struct {
	OutChannels      int
	R, S             int
	StrideH, StrideW int
	PadH, PadW       int
}

// PoolSpec is the geometry of a pooling layer.
type PoolSpec struct {
	Window, Stride, Pad int
	Avg                 bool // average pooling (GoogLeNet head) vs max
	Ceil                bool // Caffe-style ceil-mode output rounding
}

// LRNSpec is a cross-channel local response normalization window.
type LRNSpec struct{ LocalSize int }

// FCSpec is a fully-connected layer.
type FCSpec struct{ OutFeatures int }

// DropoutSpec holds the drop probability; the mask buffer is sized from the
// input shape.
type DropoutSpec struct{ P float64 }

// Layer is one step of the statically ordered computation sequence.
type Layer struct {
	ID    int // position in execution (topological) order
	Name  string
	Kind  LayerKind
	Stage Stage

	Inputs  []*Tensor
	Output  *Tensor
	InPlace bool

	Conv    *ConvSpec
	Pool    *PoolSpec
	LRN     *LRNSpec
	FC      *FCSpec
	Dropout *DropoutSpec
}

// In returns the primary input buffer (Inputs[0]).
func (l *Layer) In() *Tensor { return l.Inputs[0] }

// WeightBytes returns the weight+bias footprint of the layer (zero for
// weight-less layers). Batch normalization's scale/shift parameters and
// running statistics count here (4 values per channel).
func (l *Layer) WeightBytes(d tensor.DType) int64 {
	switch l.Kind {
	case Conv:
		in := l.In().Shape
		w := int64(l.Conv.OutChannels) * int64(in.C) * int64(l.Conv.R) * int64(l.Conv.S)
		return (w + int64(l.Conv.OutChannels)) * d.Size()
	case FC:
		in := l.In().Shape.PerSample()
		return (in*int64(l.FC.OutFeatures) + int64(l.FC.OutFeatures)) * d.Size()
	case BatchNorm:
		return 4 * int64(l.In().Shape.C) * d.Size()
	}
	return 0
}

// MaskBytes returns the persistent dropout mask footprint (zero otherwise).
func (l *Layer) MaskBytes(d tensor.DType) int64 {
	if l.Kind != Dropout {
		return 0
	}
	return l.In().Shape.Bytes(d)
}

// ConvGeom converts a Conv layer to the cuDNN geometry descriptor.
func (l *Layer) ConvGeom(d tensor.DType) cudnnsim.ConvGeom {
	if l.Kind != Conv {
		panic(fmt.Sprintf("dnn: ConvGeom on %v layer %q", l.Kind, l.Name))
	}
	in := l.In().Shape
	return cudnnsim.ConvGeom{
		N: in.N, C: in.C, H: in.H, W: in.W,
		K: l.Conv.OutChannels, R: l.Conv.R, S: l.Conv.S,
		StrideH: l.Conv.StrideH, StrideW: l.Conv.StrideW,
		PadH: l.Conv.PadH, PadW: l.Conv.PadW,
		DType: d,
	}
}

// Network is a validated, immutable network description, built by
// Builder.Finalize or WithDType.
type Network struct {
	Name  string
	Batch int
	DType tensor.DType

	Layers  []*Layer  // execution order
	Tensors []*Tensor // all distinct buffers, including the input
	Input   *Tensor

	// Derived analyses (derived.go), owned by the network and read-only:
	// indexed by Tensor.ID, filled before the network is handed out.
	gradInfos []*GradInfo
	lastBwd   []*Layer
	fpOnce    sync.Once
	fp        string
}

// WithDType returns a network with the same shapes and topology (layers and
// tensors are shared) using a different element type; every byte and cost
// computation scales with the new type, the derived analyses included. Used
// for reduced-precision what-if experiments (the paper's related-work
// Section VI discusses precision as an orthogonal memory lever).
func (n *Network) WithDType(d tensor.DType) *Network {
	c := &Network{Name: fmt.Sprintf("%s %s", n.Name, d), Batch: n.Batch, DType: d,
		Layers: n.Layers, Tensors: n.Tensors, Input: n.Input}
	c.derive()
	return c
}

// FeatureLayers returns the layers vDNN manages.
func (n *Network) FeatureLayers() []*Layer { return n.stageLayers(FeatureExtraction) }

// ClassifierLayers returns the unmanaged tail of the network.
func (n *Network) ClassifierLayers() []*Layer { return n.stageLayers(Classifier) }

func (n *Network) stageLayers(s Stage) []*Layer {
	var out []*Layer
	for _, l := range n.Layers {
		if l.Stage == s {
			out = append(out, l)
		}
	}
	return out
}

// ConvLayers returns all convolution layers in execution order.
func (n *Network) ConvLayers() []*Layer {
	var out []*Layer
	for _, l := range n.Layers {
		if l.Kind == Conv {
			out = append(out, l)
		}
	}
	return out
}

// TotalWeightBytes sums weights+biases over the network.
func (n *Network) TotalWeightBytes() int64 {
	var b int64
	for _, l := range n.Layers {
		b += l.WeightBytes(n.DType)
	}
	return b
}

// FeatureMapBytes sums all distinct feature-map buffers (the paper's "X"
// totals: what the baseline keeps resident for the whole iteration).
func (n *Network) FeatureMapBytes() int64 {
	var b int64
	for _, t := range n.Tensors {
		b += t.Bytes(n.DType)
	}
	return b
}

// Validate checks the structural invariants the executors rely on, and that
// the network carries its derived analyses for exactly its tensors.
func (n *Network) Validate() error {
	if err := n.validateGraph(); err != nil {
		return err
	}
	if len(n.gradInfos) != len(n.Tensors) || len(n.lastBwd) != len(n.Tensors) {
		return fmt.Errorf("dnn: %s lacks analyses of its graph; build it with Builder.Finalize", n.Name)
	}
	return nil
}

// validateGraph checks the layer graph's structural invariants.
func (n *Network) validateGraph() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: %s has no layers", n.Name)
	}
	// seen is indexed by Tensor.ID; own rejects a tensor whose ID does not
	// index n.Tensors back to itself before seen is indexed with it.
	own := func(t *Tensor) bool {
		return t != nil && t.ID >= 0 && t.ID < len(n.Tensors) && n.Tensors[t.ID] == t
	}
	if !own(n.Input) {
		return fmt.Errorf("dnn: %s input is not in its tensor list", n.Name)
	}
	seen := make([]bool, len(n.Tensors))
	seen[n.Input.ID] = true
	for i, l := range n.Layers {
		if l.ID != i {
			return fmt.Errorf("dnn: layer %q has ID %d at position %d", l.Name, l.ID, i)
		}
		if len(l.Inputs) == 0 {
			return fmt.Errorf("dnn: layer %q has no inputs", l.Name)
		}
		for j, in := range l.Inputs {
			if !own(in) {
				return fmt.Errorf("dnn: layer %q input %d is not in the network's tensor list", l.Name, j)
			}
			if !seen[in.ID] {
				return fmt.Errorf("dnn: layer %q consumes tensor %d before production", l.Name, in.ID)
			}
		}
		if l.Output == nil {
			return fmt.Errorf("dnn: layer %q has no output", l.Name)
		}
		if !own(l.Output) {
			return fmt.Errorf("dnn: layer %q output is not in the network's tensor list", l.Name)
		}
		seen[l.Output.ID] = true
		if l.InPlace && l.Output != l.Inputs[0] {
			return fmt.Errorf("dnn: in-place layer %q with distinct output", l.Name)
		}
		if !l.InPlace && l.Output.Producer != l {
			return fmt.Errorf("dnn: layer %q writes tensor %d owned by %q", l.Name, l.Output.ID, l.Output.Producer.Name)
		}
	}
	// Consumer lists must be consistent and execution-ordered.
	for _, t := range n.Tensors {
		last := -1
		for _, c := range t.Consumer {
			if c.ID <= last {
				return fmt.Errorf("dnn: tensor %d consumer list out of order", t.ID)
			}
			last = c.ID
			found := false
			for _, in := range c.Inputs {
				if in == t {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("dnn: tensor %d lists consumer %q which does not read it", t.ID, c.Name)
			}
		}
	}
	// Feature-extraction layers must precede classifier layers.
	inClassifier := false
	for _, l := range n.Layers {
		if l.Stage == Classifier {
			inClassifier = true
		} else if inClassifier {
			return fmt.Errorf("dnn: feature layer %q after classifier start", l.Name)
		}
	}
	return nil
}

// Stats summarizes a network for reports.
type Stats struct {
	Layers, ConvLayers, FCLayers int
	WeightBytes                  int64
	FeatureMapBytes              int64
}

// Summary computes basic statistics.
func (n *Network) Summary() Stats {
	s := Stats{Layers: len(n.Layers)}
	for _, l := range n.Layers {
		switch l.Kind {
		case Conv:
			s.ConvLayers++
		case FC:
			s.FCLayers++
		}
	}
	s.WeightBytes = n.TotalWeightBytes()
	s.FeatureMapBytes = n.FeatureMapBytes()
	return s
}
