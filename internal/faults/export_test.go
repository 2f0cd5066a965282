package faults

// Stragglers returns the indices of the nodes chosen as stragglers, in
// ascending order (empty before Install).
func (inj *Injector) Stragglers() []int { return maskIndices(inj.straggler) }

// DegradedLinks returns the indices of the nodes whose links were chosen
// for degradation, in ascending order (empty before Install).
func (inj *Injector) DegradedLinks() []int { return maskIndices(inj.degraded) }

func maskIndices(mask []bool) []int {
	var out []int
	for i, b := range mask {
		if b {
			out = append(out, i)
		}
	}
	return out
}
