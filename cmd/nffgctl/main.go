// Command nffgctl is the REST client of the un-orchestrator daemon: it
// deploys, retrieves, lists and deletes Network Function Forwarding Graphs,
// reflavors and scales their NFs, and inspects the node (its status, its
// live Figure-1 topology and the traffic crossing an interface).
//
// Usage:
//
//	nffgctl [-server http://localhost:8080] deploy [-dry-run] <graph.json>
//	nffgctl [-server ...] get <graph-id>
//	nffgctl [-server ...] delete <graph-id>
//	nffgctl [-server ...] list
//	nffgctl [-server ...] status
//	nffgctl [-server ...] topology [-format dot|json]
//	nffgctl [-server ...] capture <iface> [-duration 1s] [-o out.pcap]
//	nffgctl [-server ...] reflavor <graph> <nf> [tech]
//	nffgctl [-server ...] scale <graph> <nf> <replicas>
//
// nffgctl speaks the versioned /v1 API surface. With -dry-run, deploy
// validates and admission-checks the graph on the server (replicas and
// standby, none for a shared-NNF join, running NFs as they run) and
// prints the would-be placement without mutating anything.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/nffg"
)

const usage = `usage: nffgctl [-server URL] <command>

commands:
  deploy [-dry-run] <graph.json>
                        PUT the NF-FG in the file (id read from the graph);
                        -dry-run plans placement without deploying
  get <graph-id>        print a deployed graph
  delete <graph-id>     undeploy a graph
  list                  list deployed graph ids
  status                print node status
  topology [-format dot|json]
                        render the live node topology (paper Figure 1)
  capture <iface> [-duration 1s] [-o file.pcap]
                        capture interface traffic to a pcap file
  reflavor <graph> <nf> [vm|docker|dpdk|native]
                        hot-swap one NF's execution technology in place
                        (no tech: the placement policy picks)
  scale <graph> <nf> <replicas>
                        resize one NF's replica set; flow state migrates
                        live, no packets are lost
`

// errUsage reports a command line that names no verb or the wrong operands.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one nffgctl invocation: the server it talks to, the client that
// retries for it, and where it prints.
type cli struct {
	server string
	client *client
	stdout io.Writer
	stderr io.Writer
}

// run executes one nffgctl command line and returns its exit status: 0 on
// success, 1 when the request fails or the server answers an error, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nffgctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	server := fs.String("server", "http://localhost:8080", "un-orchestrator base URL")
	if fs.Parse(args) != nil {
		return 2
	}
	c := &cli{server: *server, client: newClient(), stdout: stdout, stderr: stderr}
	err := errUsage
	if fs.NArg() > 0 {
		err = c.verb(fs.Arg(0), fs.Args()[1:])
	}
	switch {
	case errors.Is(err, errUsage):
		fmt.Fprint(stderr, usage)
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "nffgctl: %v\n", err)
		return 1
	}
	return 0
}

// verb runs one command with its operands.
func (c *cli) verb(name string, args []string) error {
	switch {
	case name == "deploy":
		fs := c.flags(name)
		dryRun := fs.Bool("dry-run", false, "validate and plan on the server without deploying")
		if fs.Parse(args) != nil || fs.NArg() != 1 {
			return errUsage
		}
		return c.deploy(fs.Arg(0), *dryRun)
	case name == "get" && len(args) == 1:
		return c.do(http.MethodGet, "/v1/graphs/"+args[0], nil)
	case name == "delete" && len(args) == 1:
		return c.do(http.MethodDelete, "/v1/graphs/"+args[0], nil)
	case name == "list" && len(args) == 0:
		return c.do(http.MethodGet, "/v1/graphs", nil)
	case name == "status" && len(args) == 0:
		return c.do(http.MethodGet, "/v1/status", nil)
	case name == "topology":
		fs := c.flags(name)
		format := fs.String("format", "", "output format: text (default), dot, json")
		if fs.Parse(args) != nil || fs.NArg() != 0 {
			return errUsage
		}
		path := "/v1/topology"
		if *format != "" {
			path += "?format=" + *format
		}
		return c.do(http.MethodGet, path, nil)
	case name == "capture":
		fs := c.flags(name)
		duration := fs.String("duration", "1s", "capture duration")
		out := fs.String("o", "", "output file (default <iface>.pcap)")
		// The interface may come before the flags or after them.
		var iface string
		if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
			iface, args = args[0], args[1:]
		}
		if fs.Parse(args) != nil {
			return errUsage
		}
		if iface == "" && fs.NArg() == 1 {
			iface = fs.Arg(0)
		} else if iface == "" || fs.NArg() != 0 {
			return errUsage
		}
		return c.capture(iface, *duration, *out)
	case name == "reflavor" && (len(args) == 2 || len(args) == 3):
		tech := ""
		if len(args) == 3 {
			tech = args[2]
		}
		body, _ := json.Marshal(map[string]string{"technology": tech})
		return c.do(http.MethodPost, "/v1/graphs/"+args[0]+"/nfs/"+args[1]+"/reflavor", body)
	case name == "scale" && len(args) == 3:
		n, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("replicas %q: not a number", args[2])
		}
		body, _ := json.Marshal(map[string]int{"replicas": n})
		return c.do(http.MethodPost, "/v1/graphs/"+args[0]+"/nfs/"+args[1]+"/scale", body)
	}
	return errUsage
}

// flags is the flag set of one verb.
func (c *cli) flags(verb string) *flag.FlagSet {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

func (c *cli) deploy(path string, dryRun bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Validate locally first for a friendlier error.
	var g nffg.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	url := "/v1/graphs/" + g.ID
	if dryRun {
		url += "?dry-run=true"
	}
	return c.do(http.MethodPut, url, data)
}

// do sends one request and prints the answer: a JSON body indented, any
// other as it came.
func (c *cli) do(method, path string, body []byte) error {
	resp, err := c.client.send(method, c.server+path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	reply = bytes.TrimSpace(reply)
	var pretty bytes.Buffer
	if json.Indent(&pretty, reply, "", "  ") == nil {
		reply = pretty.Bytes()
	}
	fmt.Fprintf(c.stdout, "%s\n", reply)
	return nil
}

// capture saves duration's worth of the traffic crossing iface to out.
func (c *cli) capture(iface, duration, out string) error {
	if out == "" {
		out = iface + ".pcap"
	}
	// Captures stream for their whole duration: use an untimed client so a
	// long -duration is not cut off by the retry client's timeout.
	long := *c.client
	long.http = &http.Client{}
	resp, err := long.send(http.MethodGet, c.server+"/v1/capture/"+iface+"?duration="+duration, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "nffgctl: wrote %d bytes to %s\n", n, out)
	return nil
}
