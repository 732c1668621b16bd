package dnn

import (
	"fmt"
	"strings"
)

// Derived graph analyses, owned by the network they describe.
//
// GradientInfos and LastBwdReaders are pure functions of the immutable layer
// graph, read by every simulation runtime. Finalize (and WithDType, whose
// byte sizes differ) derives them once and stores them on the network as
// slices indexed by Tensor.ID, so the analyses live exactly as long as the
// graph and no package-level state has to be bounded or purged. Fingerprint,
// the persistent store's network key, is computed on first use instead: only
// a result store asks for it.

// derive fills the network's analyses. Called once, before the network is
// handed out.
func (n *Network) derive() {
	n.gradInfos = computeGradientInfos(n)
	n.lastBwd = computeLastBwdReaders(n)
}

// Fingerprint serializes the structural identity of a network: name, batch,
// element type, and per-layer kind/geometry/connectivity. Two networks with
// equal fingerprints produce identical simulation results under any
// configuration, which is what lets a persistent result store address a
// network across processes. Computed once per network, on first use.
func Fingerprint(n *Network) string {
	n.fpOnce.Do(func() { n.fp = computeFingerprint(n) })
	return n.fp
}

// computeFingerprint is the serialization behind Fingerprint.
func computeFingerprint(n *Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d|%d\n", n.Name, n.Batch, int(n.DType), len(n.Layers))
	for _, l := range n.Layers {
		fmt.Fprintf(&b, "%d|%s|%d|%d|%t|%d|%v|",
			l.ID, l.Name, int(l.Kind), int(l.Stage), l.InPlace, l.Output.ID, l.Output.Shape)
		for _, in := range l.Inputs {
			fmt.Fprintf(&b, "%d,", in.ID)
		}
		// Spec pointers print as &{...} or <nil>; both are deterministic.
		fmt.Fprintf(&b, "|%v|%v|%v|%v|%v\n", l.Conv, l.Pool, l.LRN, l.FC, l.Dropout)
	}
	return b.String()
}
