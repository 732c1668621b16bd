// Package cudnnsim models the cuDNN 4.0 kernel library the paper builds
// vDNN on: the six convolution algorithms with their workspace requirements
// and relative performance, the auxiliary layer kernels (activation,
// pooling, LRN, dropout, softmax, concat), the cuBLAS GEMM used by
// fully-connected layers, and the cudnnFind*Algorithm profiling API that the
// dynamic vDNN policy drives.
//
// Costs come from a roofline model: a kernel takes
// max(flops/effective_flops, dram_traffic/effective_bandwidth), where DRAM
// traffic is derived from a blocked-GEMM cache model. Absolute numbers are
// calibrated (see calib.go) to cuDNN-4-era measurements; the paper's results
// depend on ratios (algorithm speedups, compute-vs-PCIe overlap), which the
// model preserves.
package cudnnsim

import (
	"fmt"
	"math"

	"vdnn/internal/tensor"
)

// ConvAlgo enumerates the six cuDNN 4.0 convolution algorithms
// (cudnnConvolutionFwdAlgo_t). The paper's memory/performance trade-off is
// the choice among these (Section III-C).
type ConvAlgo int

const (
	// ImplicitGEMM is the memory-optimal algorithm: no workspace at all.
	ImplicitGEMM ConvAlgo = iota
	// ImplicitPrecompGEMM precomputes index tiles into a small workspace.
	ImplicitPrecompGEMM
	// GEMM materializes the full im2col matrix in the workspace.
	GEMM
	// Direct is enumerated by cuDNN 4 but had no production kernel.
	Direct
	// FFT convolves in the frequency domain; very large workspace holding
	// the transformed feature maps, filters and products.
	FFT
	// FFTTiling does FFT on 32x32 tiles, trading speed for far less
	// workspace.
	FFTTiling
	numAlgos
)

var algoNames = [...]string{
	"implicit-gemm", "implicit-precomp-gemm", "gemm", "direct", "fft", "fft-tiling",
}

func (a ConvAlgo) String() string {
	if a >= 0 && int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("ConvAlgo(%d)", int(a))
}

// Algos lists all algorithms in enumeration order.
func Algos() []ConvAlgo {
	out := make([]ConvAlgo, numAlgos)
	for i := range out {
		out[i] = ConvAlgo(i)
	}
	return out
}

// Direction selects among the three convolution kernels of a training step.
type Direction int

const (
	Fwd       Direction = iota // Y = X * W
	BwdData                    // dX = dY * W^T
	BwdFilter                  // dW = X^T * dY
)

func (d Direction) String() string {
	switch d {
	case Fwd:
		return "fwd"
	case BwdData:
		return "bwd-data"
	case BwdFilter:
		return "bwd-filter"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ConvGeom is the full geometry of one convolution layer instance.
type ConvGeom struct {
	N, C, H, W       int // input feature map
	K, R, S          int // output channels, filter height/width
	StrideH, StrideW int
	PadH, PadW       int
	DType            tensor.DType
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return tensor.ConvOut(g.H, g.R, g.StrideH, g.PadH, false) }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return tensor.ConvOut(g.W, g.S, g.StrideW, g.PadW, false) }

// WeightBytes returns the filter bank footprint.
func (g ConvGeom) WeightBytes() int64 {
	return int64(g.K) * int64(g.C) * int64(g.R) * int64(g.S) * g.DType.Size()
}

// Flops returns the direct-convolution FLOP count for one direction
// (multiply and add counted separately). BwdData and BwdFilter each match
// the forward count, the standard accounting for SGD convolutions.
func (g ConvGeom) Flops(Direction) int64 {
	return 2 * int64(g.N) * int64(g.K) * int64(g.OutH()) * int64(g.OutW()) *
		int64(g.C) * int64(g.R) * int64(g.S)
}

// Supported reports whether the algorithm can run this geometry in the given
// direction, mirroring cuDNN 4 constraints: the FFT family requires unit
// stride and bounded filter sizes; Direct has no kernel at all.
func (a ConvAlgo) Supported(g ConvGeom, dir Direction) bool {
	switch a {
	case ImplicitGEMM, ImplicitPrecompGEMM, GEMM:
		return true
	case Direct:
		return false // enumerated but not implemented in cuDNN 4
	case FFT, FFTTiling:
		return g.StrideH == 1 && g.StrideW == 1 &&
			g.R <= maxFFTFilter && g.S <= maxFFTFilter &&
			g.PadH < g.R && g.PadW < g.S
	}
	return false
}

// Workspace returns the workspace bytes the algorithm needs for this
// geometry and direction (cudnnGetConvolution*WorkspaceSize).
func (a ConvAlgo) Workspace(g ConvGeom, dir Direction) int64 {
	es := g.DType.Size()
	oh, ow := int64(g.OutH()), int64(g.OutW())
	switch a {
	case ImplicitGEMM, Direct:
		return 0
	case ImplicitPrecompGEMM:
		// Precomputed output-tile index buffer: one entry per filter tap per
		// output pixel column block. Small (single-digit MB).
		return oh * ow * int64(g.R) * int64(g.S) * 4
	case GEMM:
		// The im2col matrix: (C*R*S) x (N*OutH*OutW).
		return int64(g.C) * int64(g.R) * int64(g.S) * int64(g.N) * oh * ow * es
	case FFT:
		// Frequency-domain buffers for inputs, filters, and outputs. cuDNN
		// pads each 2-D transform to (H+R-1) x (W+S-1) and stores complex
		// values: (N*C + C*K + N*K) * Hf * (Wf/2+1) * 2 floats.
		hf := int64(g.H + g.R - 1)
		wfHalf := int64((g.W+g.S-1)/2 + 1)
		maps := int64(g.N)*int64(g.C) + int64(g.C)*int64(g.K) + int64(g.N)*int64(g.K)
		return maps * hf * wfHalf * 2 * es
	case FFTTiling:
		// 32x32 tiles, processed in batch chunks: filter transforms persist
		// (C*K maps) plus a working set for `fftTileBatch` images.
		tileArea := int64(fftTileSize) * int64(fftTileSize/2+1)
		maps := int64(g.C)*int64(g.K) + int64(fftTileBatch)*int64(g.C+g.K)
		return maps * tileArea * 2 * es
	}
	return 0
}

// maxAlgoWorkspace returns the largest workspace over the supported
// algorithms for a geometry; used by capacity planning tests.
func maxAlgoWorkspace(g ConvGeom, dir Direction) int64 {
	var max int64
	for _, a := range Algos() {
		if a.Supported(g, dir) {
			if ws := a.Workspace(g, dir); ws > max {
				max = ws
			}
		}
	}
	return max
}

// effFlops returns the fraction of peak FLOP/s the algorithm achieves on the
// direct-convolution FLOP count. The FFT family exceeds 1.0 on large filters
// because it performs asymptotically less arithmetic than direct
// convolution; the value is an *effective* rate over direct-conv FLOPs.
func (a ConvAlgo) effFlops(g ConvGeom) float64 {
	switch a {
	case ImplicitGEMM:
		return effImplicitGEMM
	case ImplicitPrecompGEMM:
		return effPrecompGEMM
	case GEMM:
		return effGEMM
	case Direct:
		return effDirect
	case FFT:
		return math.Min(fftEffCap, fftEffBase*math.Sqrt(float64(g.R*g.S)))
	case FFTTiling:
		return fftTilingScale * math.Min(fftEffCap, fftEffBase*math.Sqrt(float64(g.R*g.S)))
	}
	return 0
}
