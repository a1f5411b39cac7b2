//! The six supervised baselines behind one interface.
//!
//! Each model consumes the input representation the corresponding prior
//! work used: the tree models (DT, RF, XGBoost) take the raw Table 1
//! features, the distance-based models (SVM, KNN) take the transformed /
//! scaled / PCA-projected embedding (the paper notes KNN should use the
//! same preprocessing as the clustering algorithms), and the CNN takes the
//! density image.

use crate::error::{CoreError, CoreResult};
use serde::{Deserialize, Serialize};
use spsel_features::pipeline::DEFAULT_PCA_DIM;
use spsel_features::{DensityImage, Embedding, FeatureVector, Preprocessor};
use spsel_matrix::Format;
use spsel_ml::cnn::{CnnClassifier, CnnParams};
use spsel_ml::forest::{RandomForest, RandomForestParams};
use spsel_ml::gboost::{GradientBoosting, GradientBoostingParams};
use spsel_ml::knn::KnnClassifier;
use spsel_ml::svm::LinearSvm;
use spsel_ml::tree::{DecisionTree, DecisionTreeParams};
use spsel_ml::{Classifier, Dataset};
use std::sync::Arc;

/// The supervised model families of the paper's Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupervisedModel {
    /// Decision tree.
    Dt,
    /// Random forest (100 estimators, depth 6).
    Rf,
    /// Linear multiclass SVM.
    Svm,
    /// K-nearest neighbors on the embedded features.
    Knn,
    /// XGBoost-style gradient boosting (lr 0.1, 100 rounds).
    Xgb,
    /// Convolutional network on density images.
    Cnn,
}

impl SupervisedModel {
    /// The five tabular models plus the CNN, in the paper's row order.
    pub const ALL: [SupervisedModel; 6] = [
        SupervisedModel::Dt,
        SupervisedModel::Rf,
        SupervisedModel::Svm,
        SupervisedModel::Knn,
        SupervisedModel::Xgb,
        SupervisedModel::Cnn,
    ];

    /// The models used in the transfer experiments (Table 7 omits the CNN
    /// because of its training cost).
    pub const TABULAR: [SupervisedModel; 5] = [
        SupervisedModel::Dt,
        SupervisedModel::Rf,
        SupervisedModel::Svm,
        SupervisedModel::Knn,
        SupervisedModel::Xgb,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SupervisedModel::Dt => "DT",
            SupervisedModel::Rf => "RF",
            SupervisedModel::Svm => "SVM",
            SupervisedModel::Knn => "KNN",
            SupervisedModel::Xgb => "XGBoost",
            SupervisedModel::Cnn => "CNN",
        }
    }

    /// Whether the model consumes density images instead of features.
    pub fn needs_images(self) -> bool {
        matches!(self, SupervisedModel::Cnn)
    }
}

impl std::fmt::Display for SupervisedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a supervised selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisedConfig {
    /// Model family.
    pub model: SupervisedModel,
    /// Seed for stochastic trainers.
    pub seed: u64,
    /// Scale down ensemble sizes / epochs for quick runs and tests.
    pub quick: bool,
}

impl SupervisedConfig {
    /// Full-strength configuration (the paper's hyper-parameters).
    pub fn new(model: SupervisedModel, seed: u64) -> Self {
        SupervisedConfig {
            model,
            seed,
            quick: false,
        }
    }

    /// Reduced configuration for tests.
    pub fn quick(model: SupervisedModel, seed: u64) -> Self {
        SupervisedConfig {
            model,
            seed,
            quick: true,
        }
    }
}

#[derive(Debug, Clone)]
enum ModelImpl {
    Dt(DecisionTree),
    Rf(RandomForest),
    Svm(LinearSvm),
    Knn(KnnClassifier),
    Xgb(GradientBoosting),
    Cnn(Box<CnnClassifier>),
}

/// A fitted supervised format selector.
#[derive(Debug, Clone)]
pub struct SupervisedSelector {
    config: SupervisedConfig,
    model: ModelImpl,
    /// Embedding pipeline for the distance-based models.
    pre: Option<Preprocessor>,
}

impl SupervisedSelector {
    /// Fit a selector. Errors with [`CoreError::MissingImages`] when
    /// `config.model.needs_images()` and `images` is absent or incomplete,
    /// and with [`CoreError::EmptyDataset`] on an empty training set —
    /// both are routine under degraded (fault-injected) runs.
    pub fn fit(
        features: &[FeatureVector],
        images: Option<&[Option<DensityImage>]>,
        labels: &[Format],
        config: SupervisedConfig,
    ) -> CoreResult<Self> {
        Self::fit_with_embedding(features, images, labels, config, |dim| {
            Arc::new(Embedding::fit(features, dim))
        })
    }

    /// [`Self::fit`], with the embedding that SVM and KNN train in taken
    /// from `embedding(pca_dim)` instead of fitted here. It is called only
    /// for those two models, so one pooled embedding of `features` can
    /// serve every SVM and KNN fit on them, whatever their labels (see
    /// `spsel_core::share::FitPool::supervised`).
    pub(crate) fn fit_with_embedding(
        features: &[FeatureVector],
        images: Option<&[Option<DensityImage>]>,
        labels: &[Format],
        config: SupervisedConfig,
        embedding: impl FnOnce(usize) -> Arc<Embedding>,
    ) -> CoreResult<Self> {
        assert_eq!(features.len(), labels.len(), "one label per matrix");
        if features.is_empty() {
            return Err(CoreError::EmptyDataset {
                gpu: "training set".into(),
            });
        }
        let y: Vec<usize> = labels.iter().map(|l| l.index()).collect();
        // Registry-aware class space, derived from the labels themselves
        // (all-CUSP label sets keep the historical 4-class models).
        let nc = crate::label_class_count(labels.iter().copied());

        let (model, pre) = match config.model {
            SupervisedModel::Dt => {
                let x: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
                let mut m = DecisionTree::new(DecisionTreeParams {
                    max_depth: Some(if config.quick { 6 } else { 20 }),
                    seed: config.seed,
                    ..Default::default()
                });
                m.fit(&Dataset::new(x, y, nc));
                (ModelImpl::Dt(m), None)
            }
            SupervisedModel::Rf => {
                let x: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
                let mut m = RandomForest::new(RandomForestParams {
                    n_estimators: if config.quick { 20 } else { 100 },
                    max_depth: Some(6),
                    seed: config.seed,
                    ..Default::default()
                });
                m.fit(&Dataset::new(x, y, nc));
                (ModelImpl::Rf(m), None)
            }
            SupervisedModel::Xgb => {
                let x: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
                let mut m = GradientBoosting::new(GradientBoostingParams {
                    n_rounds: if config.quick { 15 } else { 100 },
                    learning_rate: 0.1,
                    ..Default::default()
                });
                m.fit(&Dataset::new(x, y, nc));
                (ModelImpl::Xgb(m), None)
            }
            SupervisedModel::Svm | SupervisedModel::Knn => {
                let embedding = embedding(DEFAULT_PCA_DIM);
                let data = Dataset::new(embedding.rows().to_vec(), y, nc);
                let m = match config.model {
                    SupervisedModel::Svm => {
                        let mut m = LinearSvm::with_defaults();
                        m.fit(&data);
                        ModelImpl::Svm(m)
                    }
                    _ => {
                        let mut m = KnnClassifier::new(5);
                        m.fit(&data);
                        ModelImpl::Knn(m)
                    }
                };
                (m, Some(embedding.preprocessor().clone()))
            }
            SupervisedModel::Cnn => {
                let Some(images) = images else {
                    return Err(CoreError::MissingImages {
                        model: config.model.name().to_string(),
                    });
                };
                assert_eq!(images.len(), features.len());
                let mut x: Vec<Vec<f64>> = Vec::with_capacity(images.len());
                for img in images {
                    let Some(img) = img.as_ref() else {
                        return Err(CoreError::MissingImages {
                            model: config.model.name().to_string(),
                        });
                    };
                    x.push(img.pixels().iter().map(|&p| p as f64).collect());
                }
                let mut m = CnnClassifier::new(CnnParams {
                    epochs: if config.quick { 3 } else { 12 },
                    seed: config.seed,
                    ..Default::default()
                });
                m.fit(&Dataset::new(x, y, nc));
                (ModelImpl::Cnn(Box::new(m)), None)
            }
        };
        Ok(SupervisedSelector { config, model, pre })
    }

    /// The configuration this selector was fitted with.
    pub fn config(&self) -> &SupervisedConfig {
        &self.config
    }

    fn input_row(&self, features: &FeatureVector, image: Option<&DensityImage>) -> Vec<f64> {
        match (&self.model, &self.pre) {
            (ModelImpl::Cnn(_), _) => image
                .expect("CNN prediction needs an image")
                .pixels()
                .iter()
                .map(|&p| p as f64)
                .collect(),
            (_, Some(pre)) => pre.embed(features),
            (_, None) => features.as_slice().to_vec(),
        }
    }

    /// Predict the format for one matrix.
    pub fn predict(&self, features: &FeatureVector, image: Option<&DensityImage>) -> Format {
        let row = self.input_row(features, image);
        let idx = match &self.model {
            ModelImpl::Dt(m) => m.predict_one(&row),
            ModelImpl::Rf(m) => m.predict_one(&row),
            ModelImpl::Svm(m) => m.predict_one(&row),
            ModelImpl::Knn(m) => m.predict_one(&row),
            ModelImpl::Xgb(m) => m.predict_one(&row),
            ModelImpl::Cnn(m) => m.predict_one(&row),
        };
        Format::from_index(idx)
    }

    /// Predict a batch; `images[i]` may be `None` for non-CNN models.
    pub fn predict_batch(
        &self,
        features: &[FeatureVector],
        images: Option<&[Option<DensityImage>]>,
    ) -> Vec<Format> {
        (0..features.len())
            .map(|i| {
                let img = images.and_then(|imgs| imgs[i].as_ref());
                self.predict(&features[i], img)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::{gen, CsrMatrix};

    fn problem() -> (Vec<FeatureVector>, Vec<Format>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for s in 0..15u64 {
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
                10 + s as usize % 6,
                s,
            ))));
            labels.push(Format::Ell);
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
                300, 300, 2, 2.3, 120, s,
            ))));
            labels.push(Format::Csr);
        }
        (features, labels)
    }

    #[test]
    fn tabular_models_learn_separable_problem() {
        let (features, labels) = problem();
        for model in SupervisedModel::TABULAR {
            let sel = SupervisedSelector::fit(
                &features,
                None,
                &labels,
                SupervisedConfig::quick(model, 3),
            )
            .unwrap();
            let preds = sel.predict_batch(&features, None);
            let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64
                / labels.len() as f64;
            assert!(acc > 0.9, "{model}: accuracy {acc}");
        }
    }

    #[test]
    fn cnn_learns_from_images() {
        let mut features = Vec::new();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for s in 0..12u64 {
            let m = CsrMatrix::from(&gen::banded(200, 2, 1.0, s));
            features.push(FeatureVector::from_csr(&m));
            images.push(Some(DensityImage::from_csr(&m, 16)));
            labels.push(Format::Ell);
            let m = CsrMatrix::from(&gen::random_uniform(200, 200, 12, s));
            features.push(FeatureVector::from_csr(&m));
            images.push(Some(DensityImage::from_csr(&m, 16)));
            labels.push(Format::Csr);
        }
        let sel = SupervisedSelector::fit(
            &features,
            Some(&images),
            &labels,
            SupervisedConfig {
                model: SupervisedModel::Cnn,
                seed: 1,
                quick: false,
            },
        )
        .unwrap();
        let preds = sel.predict_batch(&features, Some(&images));
        let acc =
            preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64;
        assert!(acc > 0.8, "CNN train accuracy {acc}");
    }

    #[test]
    fn cnn_without_images_errors_instead_of_panicking() {
        let (features, labels) = problem();
        let err = SupervisedSelector::fit(
            &features,
            None,
            &labels,
            SupervisedConfig::quick(SupervisedModel::Cnn, 0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::MissingImages { .. }), "{err}");
    }

    #[test]
    fn empty_training_set_errors() {
        let err = SupervisedSelector::fit(
            &[],
            None,
            &[],
            SupervisedConfig::quick(SupervisedModel::Dt, 0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EmptyDataset { .. }), "{err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (features, labels) = problem();
        let a = SupervisedSelector::fit(
            &features,
            None,
            &labels,
            SupervisedConfig::quick(SupervisedModel::Rf, 9),
        )
        .unwrap();
        let b = SupervisedSelector::fit(
            &features,
            None,
            &labels,
            SupervisedConfig::quick(SupervisedModel::Rf, 9),
        )
        .unwrap();
        assert_eq!(
            a.predict_batch(&features, None),
            b.predict_batch(&features, None)
        );
    }
}
