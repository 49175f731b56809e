package exec

// RowCensus reports how many rows sit on the plan's free lists and how
// many steps still hold one.
func (p *Plan) RowCensus() (free, held int) {
	for _, rows := range p.free {
		free += len(rows)
	}
	for k := range p.steps {
		if p.steps[k].row.Load() != nil {
			held++
		}
	}
	return free, held
}
