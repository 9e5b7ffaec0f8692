package dist

import (
	"errors"
	"strings"
	"testing"
)

// Every documented spelling, in any casing, resolves to its model; anything
// else — a typo of one included — is an error that lists the spellings
// instead of another machine under the given name.
func TestMachineByName(t *testing.T) {
	for spelling, want := range map[string]*Machine{
		"cluster": LinuxCluster(), "LinuxCluster": LinuxCluster(), "LINUXCLUSTER": LinuxCluster(),
		"origin": Origin3800(), "Origin": Origin3800(), "Origin3800": Origin3800(), "origin3800": Origin3800(),
		"Origin3800Unloaded": Origin3800Unloaded(), "origin3800unloaded": Origin3800Unloaded(),
	} {
		got, err := MachineByName(spelling)
		if err != nil || *got != *want {
			t.Errorf("MachineByName(%q) = %+v, %v; want %+v", spelling, got, err, want)
		}
	}
	for _, name := range []string{"", "orgin", "cluster ", "Cray", "Origin3800 Unloaded"} {
		m, err := MachineByName(name)
		var unknown *UnknownMachineError
		if !errors.As(err, &unknown) || unknown.Name != name || m != nil {
			t.Errorf("MachineByName(%q) = %+v, %v; want an *UnknownMachineError for that name", name, m, err)
			continue
		}
		for _, want := range []string{"cluster", "LinuxCluster", "origin", "Origin3800", "Origin3800Unloaded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("MachineByName(%q): message %q does not list %s", name, err, want)
			}
		}
	}
}
