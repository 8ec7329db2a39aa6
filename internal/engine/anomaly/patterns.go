package anomaly

import "strconv"

// All returns every named anomaly pattern the suite guards.
func All() []*Pattern {
	return []*Pattern{
		DirtyRead(),
		DirtyWrite(),
		NonRepeatableRead(),
		PhantomRead(),
		LostUpdate(),
		WriteSkew(),
		ReadOnlyAnomaly(),
		LateWrite(),
	}
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func itoa(n int) string { return strconv.Itoa(n) }
