package qos

// Test-side readings of a tracker's demand integral and violation ratio;
// production reports availability, violation seconds and lost requests.

// TotalRequests returns the integral of offered load.
func (t *Tracker) TotalRequests() float64 { return t.demand.Sum() }

// ViolationRatio returns the violating fraction of observed time.
func (t *Tracker) ViolationRatio() float64 {
	if t.seconds == 0 {
		return 0
	}
	return t.violationSeconds / t.seconds
}
