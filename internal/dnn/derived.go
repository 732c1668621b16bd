package dnn

import (
	"fmt"
	"strings"
	"sync"
)

// Per-network memoization of derived graph analyses.
//
// GradientInfos and LastBwdReaders are pure functions of the immutable layer
// graph, yet every simulation runtime re-derives them — across a design-space
// sweep that is thousands of identical liveness analyses of a handful of
// networks. Fingerprint, the persistent store's network key, is memoized the
// same way. The memo keys by network identity (the same identity callers and
// the sweep cache key by), holds the canonical result per network, and is
// bounded so ad-hoc throwaway graphs cannot grow it without limit.

const derivedCap = 256

// derived is one network's memoized analyses, filled lazily per field.
type derived struct {
	gradInfos   map[*Tensor]*GradInfo
	lastBwd     map[*Tensor]*Layer
	fingerprint string
}

var (
	derivedMu    sync.Mutex
	derivedMemo  = map[*Network]*derived{}
	derivedOrder []*Network // FIFO eviction queue
)

// derivedOf returns (creating if needed) the network's memo slot. Called
// with derivedMu held.
func derivedOf(n *Network) *derived {
	d := derivedMemo[n]
	if d == nil {
		if len(derivedMemo) >= derivedCap {
			oldest := derivedOrder[0]
			derivedOrder = derivedOrder[1:]
			delete(derivedMemo, oldest)
		}
		d = &derived{}
		derivedMemo[n] = d
		derivedOrder = append(derivedOrder, n)
	}
	return d
}

// PurgeDerived drops the network's memoized analyses. Callers that evict a
// network from their own memoization (the sweep engine's PurgeNetwork) use
// it so a dead graph identity does not pin its analyses until FIFO eviction
// reaches them.
func PurgeDerived(n *Network) {
	derivedMu.Lock()
	defer derivedMu.Unlock()
	if _, ok := derivedMemo[n]; !ok {
		return
	}
	delete(derivedMemo, n)
	for i, o := range derivedOrder {
		if o == n {
			derivedOrder = append(derivedOrder[:i], derivedOrder[i+1:]...)
			break
		}
	}
}

// Fingerprint serializes the structural identity of a network: name, batch,
// element type, and per-layer kind/geometry/connectivity. Two networks with
// equal fingerprints produce identical simulation results under any
// configuration, which is what lets a persistent result store address a
// network across processes. Memoized per network identity.
func Fingerprint(n *Network) string {
	derivedMu.Lock()
	fp := derivedOf(n).fingerprint
	derivedMu.Unlock()
	if fp == "" {
		fp = computeFingerprint(n)
		derivedMu.Lock()
		derivedOf(n).fingerprint = fp
		derivedMu.Unlock()
	}
	return fp
}

// computeFingerprint is the uncached serialization behind Fingerprint.
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
