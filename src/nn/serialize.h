/**
 * @file serialize.h
 * Binary save/load of model parameters so trained models can be
 * checkpointed and deployed (e.g. trained once, then replayed onto
 * the functional hardware model or quantised for the accelerator).
 *
 * Format: magic "FABW", u32 version, u64 count of parameter vectors,
 * then per vector a u64 length and that many f32 values, little
 * endian. Each vector is written in its layer's storage order.
 *
 * Version 2: nn::Dense stores W transposed, [in, out] (version 1 held
 * [out, in]). A square layer's vector has the same length in both, so
 * a version 1 file would load silently transposed; loadParams refuses
 * any version but 2.
 */
#ifndef FABNET_NN_SERIALIZE_H
#define FABNET_NN_SERIALIZE_H

#include <string>
#include <vector>

#include "nn/layer.h"

namespace fabnet {
namespace nn {

/** Write all parameter values to @p path. @return success. */
bool saveParams(const std::vector<ParamRef> &params,
                const std::string &path);

/**
 * Load parameter values from @p path into @p params.
 * The layout (vector count and sizes) must match exactly and the file
 * must end right after the last vector. All or nothing: on failure
 * (missing, truncated, corrupted or over-long file) no parameter is
 * written.
 * @return success.
 */
bool loadParams(const std::vector<ParamRef> &params,
                const std::string &path);

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_SERIALIZE_H
