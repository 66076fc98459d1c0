// The one parallelism knob, and look-alikes R10 must not flag: a differently
// named member, a comparison, and a local variable.
namespace dnslocate::atlas {

struct MeasurementOptions {
  unsigned threads = 1;
  unsigned shards = 1;
};

struct ServiceConfig {
  unsigned run_threads = 1;
};

bool configure(MeasurementOptions& options, ServiceConfig& config) {
  options.shards = 0;
  config.run_threads = 2;
  unsigned threads = 4;
  return options.threads == threads;
}

}  // namespace dnslocate::atlas
