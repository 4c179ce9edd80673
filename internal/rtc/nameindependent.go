package rtc

import "fmt"

// NameIndependent converts a Theorem 4.5 scheme into a name-independent
// one (§2.3): every node/label pair is announced over a BFS tree, so
// routing and distance queries can be addressed by the original node
// identifier. The paper notes this trivial transformation costs Ω(n log n)
// bits of broadcast and storage — the point of relabeling is precisely to
// avoid it, and the accounting here makes that cost concrete.
type NameIndependent struct {
	Scheme *Scheme
	// DirectoryRounds is the pipelined broadcast cost of announcing all n
	// labels: n + D rounds of O(log n)-bit messages.
	DirectoryRounds int
	// DirectoryWords is the per-node storage for the directory: four
	// words per label.
	DirectoryWords int
}

// MakeNameIndependent wraps sch with a label directory. hopDiameter is
// the network's D (for the broadcast accounting).
func MakeNameIndependent(sch *Scheme, hopDiameter int) (*NameIndependent, error) {
	if hopDiameter < 0 {
		return nil, fmt.Errorf("rtc: invalid hop diameter %d", hopDiameter)
	}
	n := sch.G.N()
	return &NameIndependent{
		Scheme:          sch,
		DirectoryRounds: n + hopDiameter,
		DirectoryWords:  4 * n,
	}, nil
}

// Route delivers a packet addressed by plain node id.
func (ni *NameIndependent) Route(v, w int) (*Route, error) {
	if w < 0 || w >= ni.Scheme.G.N() {
		return nil, fmt.Errorf("rtc: destination %d out of range", w)
	}
	return ni.Scheme.Route(v, ni.Scheme.Labels[w])
}

// DistEstimate answers a distance query addressed by plain node id.
func (ni *NameIndependent) DistEstimate(v, w int) (float64, error) {
	if w < 0 || w >= ni.Scheme.G.N() {
		return 0, fmt.Errorf("rtc: destination %d out of range", w)
	}
	return ni.Scheme.DistEstimate(v, ni.Scheme.Labels[w])
}

// TableWords is node v's storage including its directory copy.
func (ni *NameIndependent) TableWords(v int) int {
	return ni.Scheme.TableWords(v) + ni.DirectoryWords
}
