package bench

import "fmt"

// HostReport is the environment a host-time measurement was taken in. The
// paper's experiments are reported in virtual time, which no environment
// moves; host time (perfbench) depends on all five fields.
type HostReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Cores     int    `json:"cores"`
	Workers   int    `json:"workers"`
}

// EnvMismatch lists the environment fields on which two reports differ, as
// "field: base vs current" strings. Timing comparisons between mismatched
// environments are meaningless — a 1-core runner comparing itself against
// an 8-core baseline reports a 'regression' that is really the hardware —
// so a timing gate must go report-only whenever this list is non-empty.
func EnvMismatch(base, cur HostReport) []string {
	var m []string
	add := func(field string, b, c any) {
		if b != c {
			m = append(m, fmt.Sprintf("%s: %v vs %v", field, b, c))
		}
	}
	add("go_version", base.GoVersion, cur.GoVersion)
	add("goos", base.GOOS, cur.GOOS)
	add("goarch", base.GOARCH, cur.GOARCH)
	add("cores", base.Cores, cur.Cores)
	add("workers", base.Workers, cur.Workers)
	return m
}
