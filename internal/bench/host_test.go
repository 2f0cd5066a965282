package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestEnvMismatchOneEntryPerField: identical environments match, and a
// change to any single HostReport field yields exactly one entry naming that
// field by its JSON key. The fields are walked by reflection, so a new
// environment field that EnvMismatch does not compare fails here.
func TestEnvMismatchOneEntryPerField(t *testing.T) {
	base := HostReport{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Cores: 2, Workers: 2}
	if m := EnvMismatch(base, base); m != nil {
		t.Fatalf("identical reports: got %q, want nil", m)
	}

	cur := base
	v := reflect.ValueOf(&cur).Elem()
	tp := v.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := v.Field(i)
		saved := reflect.ValueOf(f.Interface())
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("HostReport.%s: unhandled kind %s — extend the test", tp.Field(i).Name, f.Kind())
		}
		key := tp.Field(i).Tag.Get("json")
		m := EnvMismatch(base, cur)
		if len(m) != 1 || !strings.HasPrefix(m[0], key+": ") {
			t.Errorf("HostReport.%s changed: got %q, want one entry starting %q", tp.Field(i).Name, m, key+": ")
		}
		f.Set(saved)
	}
}
