package nffg

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fieldRow is one row of the descriptor field table: the runtime function
// that reads an NF-FG field ("pkg.Func", a function or method of
// internal/pkg) and the test that shows the field is honoured. A field only
// checked at admission names the validator, nffg.Validate, as its reader.
type fieldRow struct{ reader, test string }

// validator is the reader of a validated-only field.
const validator = "nffg.Validate"

// graphFields is the descriptor field table, keyed by the JSON path of every
// leaf field of a "forwarding-graph" object. A label (a graph or port name)
// is honoured by being kept and returned as it was put.
var graphFields = map[string]fieldRow{
	"id":                                               {"orchestrator.deploy", "TestDeployGetDeleteOverREST"},
	"name":                                             {"orchestrator.GraphSpec", "TestDeployGetDeleteOverREST"},
	"VNFs[].id":                                        {"orchestrator.deploy", "TestDeployIPsecEndToEnd"},
	"VNFs[].name":                                      {"orchestrator.schedule", "TestDeployIPsecEndToEnd"},
	"VNFs[].ports[].id":                                {"orchestrator.nfPortIndex", "TestDeployIPsecEndToEnd"},
	"VNFs[].ports[].name":                              {"orchestrator.GraphSpec", "TestDeployGetDeleteOverREST"},
	"VNFs[].technology-preference":                     {"orchestrator.schedule", "TestDeployIPsecEndToEnd"},
	"VNFs[].configuration":                             {"orchestrator.launch", "TestDeployIPsecEndToEnd"},
	"VNFs[].replicas":                                  {"orchestrator.reconcile", "TestDeployHonorsReplicas"},
	"VNFs[].availability":                              {validator, "TestValidateAvailability"},
	"VNFs[].redundancy":                                {"orchestrator.reconcile", "TestStandbyPromotionUnderTraffic"},
	"VNFs[].anti_affinity":                             {"global.place", "TestAntiAffinitySpreadsNFs"},
	"end-points[].id":                                  {"orchestrator.compileMatch", "TestDeployIPsecEndToEnd"},
	"end-points[].type":                                {"orchestrator.attachEndpoint", "TestInternalEndpointsStitchGraphs"},
	"end-points[].interface.if-name":                   {"orchestrator.attachEndpoint", "TestDeployIPsecEndToEnd"},
	"end-points[].vlan.vlan-id":                        {"orchestrator.attachEndpoint", "TestSharedNNFTwoGraphsIsolation"},
	"end-points[].vlan.if-name":                        {"orchestrator.attachEndpoint", "TestSharedNNFTwoGraphsIsolation"},
	"end-points[].internal.internal-group":             {"orchestrator.attachEndpoint", "TestInternalEndpointsStitchGraphs"},
	"big-switch.flow-rules[].id":                       {"nffg.Compute", "TestDiff"},
	"big-switch.flow-rules[].priority":                 {"orchestrator.compileEntries", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.port_in":            {"orchestrator.compileMatch", "TestDeployIPsecEndToEnd"},
	"big-switch.flow-rules[].match.ether_type":         {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.vlan_id":            {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.protocol":           {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.source_ip":          {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.dest_ip":            {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.source_port":        {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].match.dest_port":          {"orchestrator.compileMatch", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].actions[].output_to_port": {"orchestrator.compileActions", "TestDeployIPsecEndToEnd"},
	"big-switch.flow-rules[].actions[].push_vlan":      {"orchestrator.compileActions", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].actions[].pop_vlan":       {"orchestrator.compileActions", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].actions[].set_eth_src":    {"orchestrator.compileActions", "TestSteeringHonoursRuleFields"},
	"big-switch.flow-rules[].actions[].set_eth_dst":    {"orchestrator.compileActions", "TestSteeringHonoursRuleFields"},
}

// jsonLeaves returns the JSON path of every leaf field reachable from t:
// structs are walked, slices add "[]", pointers are followed, anything else
// (maps included) is a leaf.
func jsonLeaves(t reflect.Type, prefix string) []string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Slice:
		return jsonLeaves(t.Elem(), prefix+"[]")
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if prefix != "" {
				name = prefix + "." + name
			}
			out = append(out, jsonLeaves(t.Field(i).Type, name)...)
		}
		return out
	default:
		return []string{prefix}
	}
}

// TestGraphFieldsHaveReaders holds the descriptor field table to the schema
// Graph decodes from and encodes to: every JSON field needs a row naming a
// function that reads it at runtime and a test that shows it is honoured,
// and both must exist in the source. Only availability is validated and
// never read at runtime.
func TestGraphFieldsHaveReaders(t *testing.T) {
	leaves := jsonLeaves(reflect.TypeOf(jsonGraph{}), "")
	seen := make(map[string]bool, len(leaves))
	for _, path := range leaves {
		seen[path] = true
		if _, ok := graphFields[path]; !ok {
			t.Errorf("%s has no row in graphFields: name its runtime reader and the test that shows it is honoured", path)
		}
	}
	var validatedOnly []string
	for path, row := range graphFields {
		if !seen[path] {
			t.Errorf("graphFields row %s names no field of the schema", path)
		}
		if row.reader == validator {
			validatedOnly = append(validatedOnly, path)
		}
	}
	sort.Strings(validatedOnly)
	if want := []string{"VNFs[].availability"}; !reflect.DeepEqual(validatedOnly, want) {
		t.Errorf("validated-only rows = %v, want %v", validatedOnly, want)
	}

	// Every reader and test the table names must exist in the root module.
	root := filepath.Join("..", "..")
	funcs := make(map[string]bool) // "pkg.Func" of non-test internal code
	tests := make(map[string]bool)
	decl := regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "benchmarks" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			if strings.HasSuffix(path, "_test.go") {
				tests[m[1]] = true
			} else {
				funcs[pkg+"."+m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, row := range graphFields {
		if !funcs[row.reader] {
			t.Errorf("%s: reader %s is not declared", path, row.reader)
		}
		if !tests[row.test] {
			t.Errorf("%s: test %s is not declared", path, row.test)
		}
	}
}
