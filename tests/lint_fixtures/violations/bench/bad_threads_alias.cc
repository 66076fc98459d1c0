// Violation fixture for R10 (threads-alias): a bench regrowing the second
// parallelism knob. Every assignment below is a finding outside perfbench/.
namespace dnslocate::atlas {

struct MeasurementOptions {
  unsigned threads = 1;
  unsigned shards = 1;
};

void configure(MeasurementOptions& options, MeasurementOptions* other) {
  options.threads = 0;
  other->threads = 4;
  MeasurementOptions designated{.threads = 2};
  (void)designated;
}

}  // namespace dnslocate::atlas
