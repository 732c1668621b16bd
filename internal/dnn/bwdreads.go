package dnn

// Backward-pass feature-map liveness.
//
// vDNN frees a feature map as soon as no remaining backward kernel will read
// it (paper Figure 8). Which kernels read which maps follows the cuDNN call
// signatures: convolution backward reads only X (bwd-filter) and the weights
// (bwd-data) — not its own Y; pooling and LRN backward read both X and Y;
// in-place activations read the shared buffer as their Y; dropout backward
// reads only its mask and the gradient; concat backward is pure views.

// BwdReads returns the feature-map buffers this layer's backward kernels
// read.
func (l *Layer) BwdReads() []*Tensor {
	switch l.Kind {
	case Conv, FC:
		return []*Tensor{l.In()}
	case Pool, LRN, BatchNorm:
		return []*Tensor{l.In(), l.Output}
	case ReLU:
		// In-place: the backward reads Y, which is the shared buffer.
		return []*Tensor{l.In()}
	case SoftmaxLoss:
		// The gradient seed is formed from the stored probabilities.
		return []*Tensor{l.Output}
	case Dropout, Concat, Add:
		// Dropout reads only its mask; concat/add backward are pure views
		// over the output gradient.
		return nil
	}
	return nil
}

// LastBwdReaders gives, for every buffer (indexed by Tensor.ID), the layer
// whose backward pass is its final reader in backward execution order
// (backward runs from high layer IDs to low, so the final reader is the
// lowest-ID reader). vDNN releases each buffer once that layer's backward
// completes. Buffers no backward kernel reads fall back to their producer's
// backward slot, which is always safe (nothing below the producer can
// reference them); only an unread network input has a nil entry.
//
// The slice is owned by the network and shared between callers: read it, do
// not mutate it.
func LastBwdReaders(n *Network) []*Layer { return n.lastBwd }

// computeLastBwdReaders is the analysis behind LastBwdReaders.
func computeLastBwdReaders(n *Network) []*Layer {
	m := make([]*Layer, len(n.Tensors))
	// Layers run in ID order, so the first reader seen is the lowest-ID one.
	for _, l := range n.Layers {
		for _, t := range l.BwdReads() {
			if m[t.ID] == nil {
				m[t.ID] = l
			}
		}
	}
	for _, t := range n.Tensors {
		if m[t.ID] == nil && t.Producer != nil {
			m[t.ID] = t.Producer
		}
	}
	return m
}
