package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"graphstudy/internal/service"
)

// graphd is a graphd child process serving on a loopback port.
type graphd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startGraphd launches bin on a fresh loopback port with the dataset store
// at dataDir and waits until /healthz answers.
func startGraphd(bin, dataDir string, args ...string) (*graphd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(filepath.Dir(dataDir), filepath.Base(dataDir)+".graphd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-data", dataDir}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting graphd: %w", err)
	}
	g := &graphd{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(g.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		if time.Now().After(deadline) {
			g.stop()
			return nil, fmt.Errorf("graphd did not become healthy on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB is the child's peak resident set so far.
func (g *graphd) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(g.cmd.Process.Pid)) }

// stop asks graphd to shut down, kills it if it lingers, and waits for it.
func (g *graphd) stop() {
	_ = g.cmd.Process.Signal(syscall.SIGTERM) // a dead process is fine: Wait reaps it
	done := make(chan struct{})
	go func() {
		_ = g.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = g.cmd.Process.Kill() // Wait below observes the exit either way
		<-done
	}
	g.log.Close()
}

// client is the benchmark's HTTP client, holding one connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends v as JSON and decodes a 200 answer into out; any other status
// (a 429 included) is an error.
func (c *client) post(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST %s: reading answer: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("POST %s: decoding answer: %w", path, err)
		}
	}
	return nil
}

// run posts one /v1/run request; an outcome other than ok is an error.
func (c *client) run(req service.RunRequest) (service.RunResponse, error) {
	var out service.RunResponse
	err := c.post("/v1/run", req, &out)
	if err == nil && out.Outcome != "ok" {
		err = fmt.Errorf("run %s/%s/%s on %s: outcome %s: %s", req.App, req.System, req.Variant, req.Graph, out.Outcome, out.Error)
	}
	return out, err
}
