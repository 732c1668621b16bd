package dnn

import (
	"fmt"

	"vdnn/internal/tensor"
)

// Builder assembles a Network layer by layer. Layers are appended in
// execution order (which is also a valid topological order); shapes are
// inferred as layers are added, so mistakes surface at construction time.
//
// The builder mirrors the Torch/Caffe-style network definition API that the
// paper says vDNN exposes ("The vDNN API closely resembles that of Torch and
// Caffe", Section IV-A).
type Builder struct {
	name  string
	batch int
	dtype tensor.DType

	layers  []*Layer
	tensors []*Tensor
	input   *Tensor
	stage   Stage
	err     error
}

// NewBuilder starts a network definition.
func NewBuilder(name string, batch int, d tensor.DType) *Builder {
	if batch < 1 {
		panic(fmt.Sprintf("dnn: batch %d < 1", batch))
	}
	return &Builder{name: name, batch: batch, dtype: d}
}

// Input declares the network input (one batch of C x H x W images) and
// returns its buffer.
func (b *Builder) Input(c, h, w int) *Tensor {
	if b.input != nil {
		b.fail("multiple inputs declared")
		return b.input
	}
	t := b.newTensor(tensor.NCHW(b.batch, c, h, w), nil)
	b.input = t
	return t
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("dnn: building %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) newTensor(s tensor.Shape, producer *Layer) *Tensor {
	t := &Tensor{ID: len(b.tensors), Shape: s, Producer: producer}
	b.tensors = append(b.tensors, t)
	return t
}

func (b *Builder) addLayer(l *Layer, inputs ...*Tensor) *Layer {
	l.ID = len(b.layers)
	l.Stage = b.stage
	l.Inputs = inputs
	for _, in := range inputs {
		in.Consumer = append(in.Consumer, l)
	}
	b.layers = append(b.layers, l)
	return l
}

// Conv appends a convolution (+bias) layer.
func (b *Builder) Conv(x *Tensor, name string, outCh, kernel, stride, pad int) *Tensor {
	return b.ConvRect(x, name, outCh, kernel, kernel, stride, stride, pad, pad)
}

// ConvRect appends a convolution with rectangular geometry.
func (b *Builder) ConvRect(x *Tensor, name string, outCh, r, s, strideH, strideW, padH, padW int) *Tensor {
	if b.err != nil {
		return x
	}
	l := &Layer{
		Name: name, Kind: Conv,
		Conv: &ConvSpec{OutChannels: outCh, R: r, S: s, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW},
	}
	b.addLayer(l, x)
	oh := tensor.ConvOut(x.Shape.H, r, strideH, padH, false)
	ow := tensor.ConvOut(x.Shape.W, s, strideW, padW, false)
	l.Output = b.newTensor(tensor.NCHW(b.batch, outCh, oh, ow), l)
	return l.Output
}

// ReLU appends an in-place activation: the output is the same buffer.
func (b *Builder) ReLU(x *Tensor, name string) *Tensor {
	if b.err != nil {
		return x
	}
	l := &Layer{Name: name, Kind: ReLU, InPlace: true}
	b.addLayer(l, x)
	l.Output = x
	return x
}

// MaxPool appends a max-pooling layer (floor-mode output rounding).
func (b *Builder) MaxPool(x *Tensor, name string, window, stride, pad int) *Tensor {
	return b.pool(x, name, PoolSpec{Window: window, Stride: stride, Pad: pad})
}

// MaxPoolCeil appends a max-pooling layer with Caffe-style ceil rounding
// (GoogLeNet's pooling layers).
func (b *Builder) MaxPoolCeil(x *Tensor, name string, window, stride, pad int) *Tensor {
	return b.pool(x, name, PoolSpec{Window: window, Stride: stride, Pad: pad, Ceil: true})
}

// AvgPool appends an average-pooling layer.
func (b *Builder) AvgPool(x *Tensor, name string, window, stride, pad int) *Tensor {
	return b.pool(x, name, PoolSpec{Window: window, Stride: stride, Pad: pad, Avg: true})
}

func (b *Builder) pool(x *Tensor, name string, spec PoolSpec) *Tensor {
	if b.err != nil {
		return x
	}
	l := &Layer{Name: name, Kind: Pool, Pool: &spec}
	b.addLayer(l, x)
	oh := tensor.ConvOut(x.Shape.H, spec.Window, spec.Stride, spec.Pad, spec.Ceil)
	ow := tensor.ConvOut(x.Shape.W, spec.Window, spec.Stride, spec.Pad, spec.Ceil)
	l.Output = b.newTensor(tensor.NCHW(b.batch, x.Shape.C, oh, ow), l)
	return l.Output
}

// LRN appends a cross-channel local response normalization layer.
func (b *Builder) LRN(x *Tensor, name string, localSize int) *Tensor {
	if b.err != nil {
		return x
	}
	l := &Layer{Name: name, Kind: LRN, LRN: &LRNSpec{LocalSize: localSize}}
	b.addLayer(l, x)
	l.Output = b.newTensor(x.Shape, l)
	return l.Output
}

// Concat joins branch outputs along the channel dimension (inception join).
func (b *Builder) Concat(name string, xs ...*Tensor) *Tensor {
	if b.err != nil {
		return xs[0]
	}
	if len(xs) < 2 {
		b.fail("concat %q needs at least 2 inputs", name)
		return xs[0]
	}
	c := 0
	for _, x := range xs {
		if x.Shape.N != xs[0].Shape.N || x.Shape.H != xs[0].Shape.H || x.Shape.W != xs[0].Shape.W {
			b.fail("concat %q inputs disagree on N/H/W: %v vs %v", name, x.Shape, xs[0].Shape)
			return xs[0]
		}
		c += x.Shape.C
	}
	l := &Layer{Name: name, Kind: Concat}
	b.addLayer(l, xs...)
	l.Output = b.newTensor(tensor.NCHW(b.batch, c, xs[0].Shape.H, xs[0].Shape.W), l)
	for _, x := range xs {
		x.GradShare = l.Output
	}
	return l.Output
}

// AddJoin joins branches by elementwise addition — the residual connection
// of ResNet-style networks. All inputs must share one shape; each input's
// gradient is the output's gradient (chain rule through addition), so no
// separate gradient buffers exist for the branches.
func (b *Builder) AddJoin(name string, xs ...*Tensor) *Tensor {
	if b.err != nil {
		return xs[0]
	}
	if len(xs) < 2 {
		b.fail("add %q needs at least 2 inputs", name)
		return xs[0]
	}
	for _, x := range xs[1:] {
		if x.Shape != xs[0].Shape {
			b.fail("add %q inputs disagree on shape: %v vs %v", name, x.Shape, xs[0].Shape)
			return xs[0]
		}
	}
	l := &Layer{Name: name, Kind: Add}
	b.addLayer(l, xs...)
	l.Output = b.newTensor(xs[0].Shape, l)
	for _, x := range xs {
		x.GradShare = l.Output
	}
	return l.Output
}

// BatchNormLayer appends a batch-normalization layer (scale/shift parameters
// and running statistics, 4 values per channel). Modeled non-in-place: the
// backward pass reads both X and Y.
func (b *Builder) BatchNormLayer(x *Tensor, name string) *Tensor {
	if b.err != nil {
		return x
	}
	l := &Layer{Name: name, Kind: BatchNorm}
	b.addLayer(l, x)
	l.Output = b.newTensor(x.Shape, l)
	return l.Output
}

// FC appends a fully-connected layer. The first FC layer switches the
// builder into the classifier stage: every subsequent layer belongs to the
// classifier and is left unmanaged by vDNN, as in the paper.
func (b *Builder) FC(x *Tensor, name string, outFeatures int) *Tensor {
	if b.err != nil {
		return x
	}
	b.stage = Classifier
	l := &Layer{Name: name, Kind: FC, FC: &FCSpec{OutFeatures: outFeatures}}
	b.addLayer(l, x)
	l.Output = b.newTensor(tensor.Vec(b.batch, outFeatures), l)
	return l.Output
}

// DropoutLayer appends an in-place dropout layer (classifier stage only in
// the benchmark networks; it owns a persistent mask buffer).
func (b *Builder) DropoutLayer(x *Tensor, name string, p float64) *Tensor {
	if b.err != nil {
		return x
	}
	if p <= 0 || p >= 1 {
		b.fail("dropout %q probability %v out of (0,1)", name, p)
		return x
	}
	l := &Layer{Name: name, Kind: Dropout, InPlace: true, Dropout: &DropoutSpec{P: p}}
	b.addLayer(l, x)
	l.Output = x
	return x
}

// SoftmaxLoss terminates the network with a softmax + loss layer whose
// backward pass seeds the gradient chain (Equation 1 in the paper).
func (b *Builder) SoftmaxLoss(x *Tensor, name string) *Tensor {
	if b.err != nil {
		return x
	}
	b.stage = Classifier // networks without FC layers still end in the classifier stage
	l := &Layer{Name: name, Kind: SoftmaxLoss}
	b.addLayer(l, x)
	l.Output = b.newTensor(x.Shape, l)
	return l.Output
}

// Finalize validates the network and derives its graph analyses.
func (b *Builder) Finalize() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.input == nil {
		return nil, fmt.Errorf("dnn: %s has no input", b.name)
	}
	n := &Network{
		Name:    b.name,
		Batch:   b.batch,
		DType:   b.dtype,
		Layers:  b.layers,
		Tensors: b.tensors,
		Input:   b.input,
	}
	if err := n.validateGraph(); err != nil {
		return nil, err
	}
	n.derive()
	return n, nil
}

// MustFinalize is Finalize for statically known-good network definitions.
func (b *Builder) MustFinalize() *Network {
	n, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return n
}
