package vnet

import "testing"

// UseWire serves every later request of n, from clients made before or
// after the call, over the wire oracle instead of by direct dispatch,
// and stops the wire when tb ends. Call it before traffic starts.
func UseWire(tb testing.TB, n *Network) {
	w := newWire(n)
	n.roundTrip = w.roundTrip
	tb.Cleanup(w.close)
}
